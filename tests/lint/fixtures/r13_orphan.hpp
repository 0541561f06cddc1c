// lint-expect: R13 -- seeded orphan header: staged under src/milback/fix/
// with no includer anywhere in src/, bench/, examples/ or scenario_bench/.
// The finding is reported at line 1, where this marker sits.
#pragma once

namespace milback::fix {

inline double unread_helper_db(double x_db) { return 2.0 * x_db; }

}  // namespace milback::fix
