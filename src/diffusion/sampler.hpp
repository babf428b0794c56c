#pragma once
// Reverse-process samplers:
//  * DdpmSampler -- full-T ancestral sampling (training-time scheduler).
//  * DdimSampler -- deterministic subsequence sampling with classifier-
//    free guidance (the paper: 250 DDIM steps, guidance scale 7.0).
//  * BatchedDdimScheduler -- continuous cross-request step batching
//    (DESIGN.md §16): packs the latents of every in-flight sampling job
//    into one batched UNet forward per denoising step, admits new jobs
//    at step boundaries, and retires finished/cancelled jobs without
//    stalling the rest of the batch. DdimSampler::sample/edit/inpaint
//    are batch-of-one wrappers over this same engine, so there is
//    exactly one DDIM update implementation in the codebase and the
//    batched path is bitwise identical to the sequential one at every
//    batch size.

#include <cstdint>
#include <functional>
#include <vector>

#include "diffusion/schedule.hpp"
#include "diffusion/unet.hpp"

namespace aero::diffusion {

class DdpmSampler {
public:
    DdpmSampler(const UNet& unet, const NoiseSchedule& schedule,
                Parameterization parameterization = Parameterization::kEpsilon)
        : unet_(unet),
          schedule_(schedule),
          parameterization_(parameterization) {}

    /// Draws one sample of the given latent shape [C,H,W], conditioned
    /// on `condition_tokens` (empty tensor = unconditional).
    Tensor sample(const std::vector<int>& shape,
                  const Tensor& condition_tokens, util::Rng& rng) const;

private:
    const UNet& unet_;
    const NoiseSchedule& schedule_;
    Parameterization parameterization_;
};

struct DdimConfig {
    int inference_steps = 16;
    float guidance_scale = 7.0f;  ///< 1.0 disables classifier-free guidance
    float eta = 0.0f;             ///< 0 = deterministic DDIM
    Parameterization parameterization = Parameterization::kEpsilon;
    /// Heun's method: a second denoiser evaluation per step (predictor-
    /// corrector on the probability-flow ODE). Doubles the NFE for a
    /// higher-order update. Only meaningful on the probability-flow ODE,
    /// so the sampler IGNORES this flag whenever eta > 0 — the gate is
    /// the configured eta itself, not the per-step sigma (which can
    /// round to 0 on flat alpha_bar stretches even with eta > 0).
    bool use_heun = false;
    /// Cooperative cancellation, polled before every denoising step AND
    /// before the Heun corrector's second denoiser evaluation (the
    /// corrector doubles the NFE, so a step-top-only poll would double
    /// deadline-cancellation latency). When it returns true the sampler
    /// abandons the run and returns an empty tensor — never a
    /// half-denoised latent that could be mistaken for a finished
    /// sample.
    std::function<bool()> should_cancel;

    /// The paper's inference configuration.
    static DdimConfig paper() {
        DdimConfig config;
        config.inference_steps = 250;
        config.guidance_scale = 7.0f;
        config.eta = 0.0f;
        config.parameterization = Parameterization::kEpsilon;
        return config;
    }
};

/// The DDIM timestep subsequence for `config` over a `schedule_steps`-
/// step schedule, high noise first.
std::vector<int> ddim_timestep_subsequence(const DdimConfig& config,
                                           int schedule_steps);

/// One sampling job for the batching engine: everything one
/// DdimSampler::sample/edit/inpaint call would take as arguments. `rng`
/// points at the CALLER's stream — the engine draws from that exact
/// stream in the exact order the sequential path would, which is what
/// makes batched output bitwise identical and leaves the stream in the
/// same post-run state. The Rng (and source/mask storage) must stay
/// valid and untouched by the caller until the job retires.
struct SamplerJob {
    enum class Kind { kSample, kEdit, kInpaint };
    Kind kind = Kind::kSample;
    std::vector<int> shape;  ///< [C,H,W] for kSample (others use source)
    Tensor source;           ///< kEdit / kInpaint source latent
    Tensor mask;             ///< kInpaint regenerate-mask (1 = regenerate)
    float strength = 1.0f;   ///< kEdit; non-finite values retire empty
    Tensor condition_tokens;
    DdimConfig config;
    util::Rng* rng = nullptr;
};

/// Synchronous hand-off between a caller that wants one latent and an
/// engine that may batch many (serve::StepBatcher). execute() blocks
/// until the job retires; an empty tensor means config.should_cancel
/// fired, mirroring the sequential samplers.
class SamplerExecutor {
public:
    virtual ~SamplerExecutor() = default;
    virtual Tensor execute(SamplerJob job) = 0;
};

/// Runs one job to completion on a private batch-of-one scheduler: the
/// sequential path. DdimSampler's entry points and the pipeline's
/// no-executor path both delegate here.
Tensor run_sampler_job(const UNet& unet, const NoiseSchedule& schedule,
                       SamplerJob job);

/// Continuous cross-request DDIM step scheduler. NOT thread-safe: one
/// owner (a serve::StepBatcher driver thread, or a stack-local
/// batch-of-one loop) calls admit()/step()/take_finished() serially.
/// Each job keeps its own timestep cursor, so jobs at different
/// progress — including edits that start mid-subsequence and jobs
/// admitted while others are mid-flight — share one forward via the
/// UNet's per-sample `t` vector. Jobs whose latent shapes differ are
/// partitioned into one forward per shape group within the step.
class BatchedDdimScheduler {
public:
    BatchedDdimScheduler(const UNet& unet, const NoiseSchedule& schedule);

    /// Admits a job at the next step boundary. Prepares the initial
    /// latent exactly as the sequential path would (advancing *job.rng
    /// identically); a kEdit job with non-finite strength retires
    /// immediately with an empty latent instead of corrupting the
    /// start-index cast.
    std::uint64_t admit(SamplerJob job);

    /// Runs ONE batched denoising step across every active job: polls
    /// each job's should_cancel (retiring cancelled ones), performs one
    /// guided-eps forward per latent-shape group, applies the
    /// per-request DDIM update, and advances cursors. Returns the
    /// number of jobs still active afterwards.
    std::size_t step();

    struct Finished {
        std::uint64_t id = 0;
        Tensor latent;  ///< empty when cancelled
        bool cancelled = false;
    };
    /// Drains the retired-job list (finished since the last call).
    std::vector<Finished> take_finished();

    std::size_t active() const { return active_.size(); }

private:
    struct Request {
        std::uint64_t id = 0;
        SamplerJob job;
        std::vector<int> timesteps;
        std::size_t cursor = 0;
        Tensor z;
        /// Cancelled by the mid-step (Heun corrector) poll; retired at
        /// the end of the step so indices stay stable within it.
        bool mid_cancelled = false;
    };

    /// One classifier-free-guided noise prediction per entry of
    /// `requests`, evaluated at (`latents[i]`, `timesteps[i]`) — the
    /// batched equivalent of the sequential guided_eps. CFG requests
    /// contribute a conditional and an unconditional row to the same
    /// forward.
    std::vector<Tensor> batched_guided_eps(
        const std::vector<const Request*>& requests,
        const std::vector<const Tensor*>& latents,
        const std::vector<int>& timesteps) const;

    void retire(std::uint64_t id, Tensor latent, bool cancelled);

    const UNet& unet_;
    const NoiseSchedule& schedule_;
    std::vector<Request> active_;
    std::vector<Finished> finished_;
    std::uint64_t next_id_ = 1;
};

class DdimSampler {
public:
    DdimSampler(const UNet& unet, const NoiseSchedule& schedule,
                const DdimConfig& config = {})
        : unet_(unet), schedule_(schedule), config_(config) {}

    Tensor sample(const std::vector<int>& shape,
                  const Tensor& condition_tokens, util::Rng& rng) const;

    /// SDEdit-style image-to-image: noises `source_latent` to
    /// `strength` * T and denoises under the new condition. strength in
    /// (0, 1]; low strength stays close to the source, 1.0 equals
    /// sample(). Non-finite strengths are rejected (empty tensor) —
    /// NaN would otherwise sail through the clamp into a size_t cast.
    /// Used for viewpoint transitions anchored on a reference.
    Tensor edit(const Tensor& source_latent, const Tensor& condition_tokens,
                float strength, util::Rng& rng) const;

    /// RePaint-style inpainting: regenerates only where `mask` is 1
    /// (same shape as the latent), re-imposing the source elsewhere at
    /// every step.
    Tensor inpaint(const Tensor& source_latent, const Tensor& mask,
                   const Tensor& condition_tokens, util::Rng& rng) const;

    const DdimConfig& config() const { return config_; }

private:
    const UNet& unet_;
    const NoiseSchedule& schedule_;
    DdimConfig config_;
};

}  // namespace aero::diffusion
