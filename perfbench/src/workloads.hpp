#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "workload.hpp"

namespace perfbench {

/// The four workloads. Constructing one is its set-up: it builds the
/// workload's state from `seed`, fills the library's caches and runs one
/// checked warm operation. Constructors throw on a failed check.
[[nodiscard]] std::unique_ptr<Workload> make_certify(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_service(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_frontend(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_replay(std::uint64_t seed);

/// Factory by workload name; null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed);

}  // namespace perfbench
