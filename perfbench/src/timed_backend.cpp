#include "timed_backend.hpp"

#include <memory>
#include <mutex>

#include "harness/backend.hpp"
#include "harness/workload.hpp"
#include "pqd/service.hpp"

namespace perfbench {
namespace {

struct ThreadTrace {
  SpanLog* log = nullptr;
  std::int64_t parent = kNoParent;
  std::uint64_t op = 0;
};

thread_local ThreadTrace tl_trace;

class TimedHandle final : public harness::QueueHandle {
 public:
  explicit TimedHandle(std::unique_ptr<harness::QueueHandle> inner)
      : inner_(std::move(inner)) {}

  void seed(harness::Key key, harness::Value value) override {
    inner_->seed(key, value);
  }

  void insert(harness::OpContext& ctx, harness::Key key,
              harness::Value value) override {
    SpanLog* log = tl_trace.log;
    if (log == nullptr) return inner_->insert(ctx, key, value);
    const std::int64_t id = log->open(SpanName::kBackendInsert,
                                      tl_trace.parent, tl_trace.op, now_ns());
    inner_->insert(ctx, key, value);
    log->close(id, now_ns());
  }

  std::optional<harness::Key> delete_min(harness::OpContext& ctx) override {
    SpanLog* log = tl_trace.log;
    if (log == nullptr) return inner_->delete_min(ctx);
    const std::int64_t id = log->open(SpanName::kBackendDeleteMin,
                                      tl_trace.parent, tl_trace.op, now_ns());
    std::optional<harness::Key> got = inner_->delete_min(ctx);
    log->close(id, now_ns());
    return got;
  }

  std::size_t final_size() const override { return inner_->final_size(); }
  void register_daemons() override { inner_->register_daemons(); }
  void quiesce() override { inner_->quiesce(); }
  slpq::TelemetrySnapshot telemetry() const override {
    return inner_->telemetry();
  }

 private:
  std::unique_ptr<harness::QueueHandle> inner_;
};

}  // namespace

const std::string& timed_backend_name() {
  static const std::string name = "perfbench-timed";
  static std::once_flag once;
  std::call_once(once, [] {
    auto& registry = harness::BackendRegistry::instance();
    const harness::Backend& inner =
        registry.require(harness::Flavor::Native, pqd::ServiceConfig{}.backend);
    harness::Backend wrapped = inner;
    wrapped.name = name;
    wrapped.label = "timed " + inner.label;
    wrapped.summary = "perfbench: spans around " + inner.name;
    wrapped.aliases.clear();
    auto make_inner = inner.make;
    wrapped.make = [make_inner](const harness::BackendInit& init) {
      return std::unique_ptr<harness::QueueHandle>(
          new TimedHandle(make_inner(init)));
    };
    registry.add(std::move(wrapped));
  });
  return name;
}

void trace_backend_calls(SpanLog* log, std::int64_t parent,
                         std::uint64_t op) noexcept {
  tl_trace = ThreadTrace{log, parent, op};
}

}  // namespace perfbench
