// Clean control for R13: a src/milback header that a production file
// (r13_user.cpp, staged under bench/) includes.
#pragma once

namespace milback::fix {

inline double used_helper_db(double x_db) { return x_db + 3.0; }

}  // namespace milback::fix
