// Seeded R12 violations: a core header reaching up into the cell engine and
// the mesh, the include shape that used to force cell/ sources into
// milback_core. Each flagged line carries an expectation marker the fixture
// runner matches against the lint output.
#pragma once

#include "milback/cell/cell_engine.hpp"  // lint-expect: R12
#include <milback/mesh/mesh.hpp>  // lint-expect: R12
#include "milback/core/link.hpp"

namespace milback::core {

struct UpwardAdapter {
  cell::CellEngine engine;
};

}  // namespace milback::core
