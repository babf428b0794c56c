#pragma once
// Continuous cross-request step batching for the serve path
// (DESIGN.md §16). A StepBatcher owns one driver thread running a
// diffusion::BatchedDdimScheduler: service workers hand their sampling
// jobs over through execute() (a diffusion::SamplerExecutor), the
// driver packs every in-flight job into one batched UNet forward per
// denoising step, admits newly arrived jobs at step boundaries, and
// resolves each worker's future when its job retires. Per-request
// deadlines and priorities keep working unchanged: the job's
// should_cancel is polled inside the engine at every step boundary
// (plus mid-step under Heun), so one member of the batch cancelling
// never stalls the rest.
//
// The bitwise contract: because the engine draws from each job's own
// caller-provided Rng in sequential order, a batched run produces
// memcmp-identical latents to the sequential path at every batch size,
// including mid-flight joins and retirements. With batching not live
// (AERO_BATCH=0 or batch_max <= 1) the service builds no batcher,
// leaves GenerateControl::executor unset, and the serve path is the
// pre-batching code, bit for bit.

#include <cstdint>
#include <deque>
#include <future>
#include <thread>

#include "diffusion/sampler.hpp"
#include "obs/metrics.hpp"
#include "util/annotations.hpp"
#include "util/sync.hpp"

namespace aero::serve {

/// Process-wide batching switch, initialised once from AERO_BATCH
/// (0 disables; anything else, or unset, enables).
bool batching_enabled();
/// Test/bench hook; takes effect on the next StepBatcher construction.
void set_batching_enabled(bool on);

struct StepBatcherConfig {
    /// Concurrent jobs packed into one denoising step. 1 (or 0) turns
    /// batching off for the service — no batcher, no hand-off.
    int batch_max = 8;
};

/// True when `config` batches: batch_max > 1 and batching_enabled().
/// The service builds a StepBatcher only then; otherwise it keeps the
/// inline sampling path (a true no-op).
bool step_batching_live(const StepBatcherConfig& config);

class StepBatcher final : public diffusion::SamplerExecutor {
public:
    /// `unet` and `schedule` (a pipeline's, via unet() /
    /// noise_schedule()) must outlive the batcher; they are only ever
    /// read. The driver thread starts immediately.
    StepBatcher(const diffusion::UNet& unet,
                const diffusion::NoiseSchedule& schedule,
                const StepBatcherConfig& config);
    ~StepBatcher() override;
    StepBatcher(const StepBatcher&) = delete;
    StepBatcher& operator=(const StepBatcher&) = delete;

    /// Blocks until the job retires; empty tensor = cancelled. Safe to
    /// call from many worker threads concurrently.
    tensor::Tensor execute(diffusion::SamplerJob job) override;

    /// Drains in-flight jobs and joins the driver thread. Idempotent;
    /// the destructor calls it. The owning service must stop its
    /// workers first — execute() after shutdown() resolves empty.
    /// (Named distinctly from InferenceService::stop so call sites
    /// resolve unambiguously, for readers and for aero_lint alike.)
    void shutdown() AERO_EXCLUDES(stop_mutex_, mutex_);

    /// Counters for tests/benches; admitted == completed + cancelled
    /// once every execute() call has returned.
    struct Stats {
        long long admitted = 0;
        long long completed = 0;
        long long cancelled = 0;
        std::size_t peak_batch = 0;  ///< max jobs sharing one step
    };
    Stats stats() const AERO_EXCLUDES(mutex_);

private:
    struct Pending {
        diffusion::SamplerJob job;
        std::promise<tensor::Tensor> promise;
    };

    /// Driver thread: admit pending jobs at the step boundary, run one
    /// batched step, resolve retired jobs, repeat. The scheduler and
    /// the id -> promise map are confined to this thread. Opted out of
    /// the static analysis: the condition-variable wait releases and
    /// re-acquires mutex_ through std::unique_lock, which the analysis
    /// cannot follow (same idiom as InferenceService::worker_loop).
    void driver_loop() AERO_NO_THREAD_SAFETY_ANALYSIS;

    const diffusion::UNet* unet_;
    const diffusion::NoiseSchedule* schedule_;
    StepBatcherConfig config_;
    obs::Gauge* occupancy_ = nullptr;

    mutable util::Mutex mutex_;
    util::CondVar cv_;
    std::deque<Pending> pending_ AERO_GUARDED_BY(mutex_);
    bool stopping_ AERO_GUARDED_BY(mutex_) = false;
    Stats stats_ AERO_GUARDED_BY(mutex_);

    /// Serialises concurrent stop() callers (explicit stop racing the
    /// destructor) across the join; the only nesting is
    /// stop_mutex_ -> mutex_ inside stop().
    util::Mutex stop_mutex_ AERO_ACQUIRED_BEFORE(mutex_);
    std::thread driver_ AERO_GUARDED_BY(stop_mutex_);
};

}  // namespace aero::serve
