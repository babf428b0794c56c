#include "serve/batcher.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/env.hpp"

namespace aero::serve {

namespace {

std::atomic<bool> g_batching_enabled = [] {
    return util::env_int("AERO_BATCH", 1) != 0;
}();

}  // namespace

bool batching_enabled() {
    return g_batching_enabled.load(std::memory_order_relaxed);
}

void set_batching_enabled(bool on) {
    g_batching_enabled.store(on, std::memory_order_relaxed);
}

bool step_batching_live(const StepBatcherConfig& config) {
    return config.batch_max > 1 && batching_enabled();
}

StepBatcher::StepBatcher(const diffusion::UNet& unet,
                         const diffusion::NoiseSchedule& schedule,
                         const StepBatcherConfig& config)
    : unet_(&unet),
      schedule_(&schedule),
      config_(config),
      occupancy_(&obs::MetricsRegistry::instance().gauge(
          "aero_batch_occupancy",
          "jobs currently sharing the batched denoising step")) {
    // Nothing can race the constructor; the lock keeps the guarded-by
    // contract uniform at the cost of one uncontended acquisition.
    const util::MutexLock lock(stop_mutex_);
    driver_ = std::thread(&StepBatcher::driver_loop, this);
}

StepBatcher::~StepBatcher() { shutdown(); }

tensor::Tensor StepBatcher::execute(diffusion::SamplerJob job) {
    std::promise<tensor::Tensor> promise;
    std::future<tensor::Tensor> future = promise.get_future();
    {
        const util::MutexLock lock(mutex_);
        if (stopping_) return tensor::Tensor();  // caller treats as cancel
        pending_.push_back({std::move(job), std::move(promise)});
        ++stats_.admitted;
    }
    cv_.notify_all();
    // The job holds a pointer to the caller's Rng (and source/mask
    // storage); blocking here keeps them valid until the job retires.
    return future.get();
}

void StepBatcher::shutdown() {
    const util::MutexLock stop_lock(stop_mutex_);
    {
        const util::MutexLock lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    if (driver_.joinable()) driver_.join();
}

StepBatcher::Stats StepBatcher::stats() const {
    const util::MutexLock lock(mutex_);
    return stats_;
}

void StepBatcher::driver_loop() {
    // Driver-confined state: the scheduler and the id -> promise map
    // are touched by this thread only; the mutex covers just the
    // pending hand-off queue and the stats.
    diffusion::BatchedDdimScheduler scheduler(*unet_, *schedule_);
    std::unordered_map<std::uint64_t, std::promise<tensor::Tensor>> inflight;
    std::vector<Pending> admitted;
    const std::size_t capacity =
        static_cast<std::size_t>(std::max(1, config_.batch_max));
    for (;;) {
        admitted.clear();
        {
            std::unique_lock<util::Mutex> lock(mutex_);
            // With jobs in flight the driver never parks: every loop
            // iteration is one real denoising step, and arrivals join
            // at the next boundary. Idle (or stopping with nothing
            // left), it sleeps on the hand-off queue.
            if (inflight.empty()) {
                cv_.wait(lock,
                         [this] { return stopping_ || !pending_.empty(); });
            }
            if (stopping_ && pending_.empty() && inflight.empty()) return;
            // Continuous batching: join at the step boundary while
            // capacity remains; the rest wait for a retirement.
            while (!pending_.empty() &&
                   inflight.size() + admitted.size() < capacity) {
                admitted.push_back(std::move(pending_.front()));
                pending_.pop_front();
            }
        }
        // admit() draws each job's initial latent from its own rng —
        // real work, kept off the lock.
        for (Pending& pending : admitted) {
            const std::uint64_t id = scheduler.admit(std::move(pending.job));
            inflight.emplace(id, std::move(pending.promise));
        }
        occupancy_->set(static_cast<double>(inflight.size()));
        if (!admitted.empty()) {
            const util::MutexLock lock(mutex_);
            stats_.peak_batch = std::max(stats_.peak_batch, inflight.size());
        }
        if (!inflight.empty()) scheduler.step();
        for (diffusion::BatchedDdimScheduler::Finished& finished :
             scheduler.take_finished()) {
            const auto it = inflight.find(finished.id);
            if (it == inflight.end()) continue;
            {
                const util::MutexLock lock(mutex_);
                if (finished.cancelled) {
                    ++stats_.cancelled;
                } else {
                    ++stats_.completed;
                }
            }
            it->second.set_value(std::move(finished.latent));
            inflight.erase(it);
        }
    }
}

}  // namespace aero::serve
