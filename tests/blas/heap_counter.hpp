#pragma once
// heap_counter.hpp — counts every C++ heap allocation in the test binary
// that links heap_counter.cpp (test_blas, test_lfd).
//
// heap_counter.cpp replaces the global operator new family with
// counting versions over malloc/posix_memalign, so a test can assert
// that a code path performs no allocation at all (the pack arena's own
// counter sees only arena slots).

#include <cstdint>

namespace dcmesh::test {

/// Process-wide number of operator new calls so far.
[[nodiscard]] std::uint64_t heap_allocations() noexcept;

}  // namespace dcmesh::test
