// Clean control for R12: a core header that includes only core and lower
// layers. Comments may still name milback/cell/ and milback/mesh/ headers
// (callers live there); only #include lines count.
#pragma once

#include "milback/channel/backscatter_channel.hpp"
#include "milback/core/link.hpp"
#include "milback/util/rng.hpp"

namespace milback::core {

struct LinkHolder {
  MilBackLink link;
};

}  // namespace milback::core
