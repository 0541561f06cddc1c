// Clean control for R13: a bench translation unit that includes the staged
// headers meant to count as used -- r13_used.hpp and the R12 pair, which
// would otherwise be orphans in the staged tree.
#include "milback/core/r12_clean.hpp"
#include "milback/core/r12_upward.hpp"
#include "milback/fix/r13_used.hpp"

double r13_user_total_db() { return milback::fix::used_helper_db(1.0); }
