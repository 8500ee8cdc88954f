#pragma once

/// \file engine.hpp
/// Umbrella header for the engine module (the shared master-side
/// distributed-GD protocol and its providers).

#include "engine/simulated_provider.hpp"  // IWYU pragma: export
#include "engine/training_engine.hpp"     // IWYU pragma: export
#include "engine/types.hpp"               // IWYU pragma: export
