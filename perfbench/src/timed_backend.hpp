// A timing wrapper around the pqd service's default shard backend.
//
// The wrapper is registered in harness::BackendRegistry under its own
// name; a pqd::Service built with that name gets shards whose QueueHandle
// forwards every call unchanged to the default backend's handle and, when
// the calling thread has a span log installed, records a span around each
// insert and delete_min. The service calls its shard backend under the
// shard lock on the client thread, so the thread-local current op id set
// by the client loop is the span's exact parent.
#pragma once

#include <cstdint>
#include <string>

#include "spans.hpp"

namespace perfbench {

/// Registers the wrapper (once) and returns its registry name. The wrapped
/// backend is pqd::ServiceConfig{}.backend as it was at registration.
const std::string& timed_backend_name();

/// Sets the calling thread's sink for backend spans (nullptr: forward
/// without timing) and the parent span and op id the next backend calls
/// are recorded under.
void trace_backend_calls(SpanLog* log, std::int64_t parent = kNoParent,
                         std::uint64_t op = 0) noexcept;

}  // namespace perfbench
