#pragma once

/// \file core.hpp
/// Umbrella header for the core module (the paper's contribution).

#include "core/cached_gradient_source.hpp"  // IWYU pragma: export
#include "core/cyclic_repetition.hpp"       // IWYU pragma: export
#include "core/gradient_source.hpp"         // IWYU pragma: export
#include "core/hetero.hpp"                  // IWYU pragma: export
#include "core/partition_scheme.hpp"        // IWYU pragma: export
#include "core/scheme.hpp"                  // IWYU pragma: export
#include "core/scheme_registry.hpp"         // IWYU pragma: export
#include "core/simple_random.hpp"           // IWYU pragma: export
#include "core/theory.hpp"                  // IWYU pragma: export
