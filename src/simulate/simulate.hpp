#pragma once

/// \file simulate.hpp
/// Umbrella header for the simulate module.

#include "simulate/cluster_sim.hpp"   // IWYU pragma: export
#include "simulate/latency_model.hpp" // IWYU pragma: export
