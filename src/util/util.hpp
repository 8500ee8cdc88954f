#pragma once

/// \file util.hpp
/// Umbrella header for the util module.

#include "util/assert.hpp"      // IWYU pragma: export
#include "util/cli.hpp"         // IWYU pragma: export
#include "util/csv.hpp"         // IWYU pragma: export
#include "util/names.hpp"       // IWYU pragma: export
#include "util/table.hpp"       // IWYU pragma: export
#include "util/thread_pool.hpp" // IWYU pragma: export
#include "util/timer.hpp"       // IWYU pragma: export
