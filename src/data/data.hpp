#pragma once

/// \file data.hpp
/// Umbrella header for the data module.

#include "data/batching.hpp"  // IWYU pragma: export
#include "data/dataset.hpp"   // IWYU pragma: export
#include "data/placement.hpp" // IWYU pragma: export
#include "data/synthetic.hpp" // IWYU pragma: export
