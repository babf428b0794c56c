#include "diffusion/sampler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "tensor/ops.hpp"

namespace aero::diffusion {

namespace ops = aero::tensor;

namespace {

obs::Histogram& step_histogram() {
    static obs::Histogram& histogram =
        obs::MetricsRegistry::instance().histogram(
            "aero_diffusion_step_ms", "single DDIM denoising step, ms",
            obs::default_ms_buckets());
    return histogram;
}

/// Continuous-batching metrics (obs/metric_names.hpp). The batch-size
/// histogram records how many requests each batched step amortised;
/// joins/retired balance once every admitted job has retired.
struct BatchMetrics {
    obs::Histogram* size = nullptr;
    obs::Counter* steps = nullptr;
    obs::Counter* joins = nullptr;
    obs::Counter* retired = nullptr;
};

const BatchMetrics& batch_metrics() {
    static const BatchMetrics metrics = [] {
        obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
        BatchMetrics m;
        m.size = &reg.histogram(
            "aero_batch_size",
            "requests amortised by one batched denoising step",
            {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
        m.steps = &reg.counter("aero_batch_steps_total",
                               "batched denoising steps executed");
        m.joins = &reg.counter("aero_batch_joins_total",
                               "sampling jobs admitted into the step batch");
        m.retired = &reg.counter(
            "aero_batch_retired_total",
            "sampling jobs retired from the step batch (finished or "
            "cancelled)");
        return m;
    }();
    return metrics;
}

/// Classifier-free guidance needs the paired unconditional evaluation
/// only when a condition is present and the scale moves the estimate.
bool cfg_active(const SamplerJob& job) {
    return !job.condition_tokens.empty() &&
           std::abs(job.config.guidance_scale - 1.0f) >= 1e-6f;
}

}  // namespace

Tensor DdpmSampler::sample(const std::vector<int>& shape,
                           const Tensor& condition_tokens,
                           util::Rng& rng) const {
    const int steps = schedule_.steps();
    Tensor z = Tensor::randn(shape, rng);
    for (int t = steps - 1; t >= 0; --t) {
        const Tensor prediction =
            unet_.denoise(z, t, steps, condition_tokens);
        const Tensor eps_pred =
            schedule_.to_epsilon(prediction, z, t, parameterization_);
        const float alpha = schedule_.alpha(t);
        const float alpha_bar = schedule_.alpha_bar(t);
        const float coef =
            schedule_.beta(t) / std::sqrt(1.0f - alpha_bar);
        // mu = (z - coef * eps) / sqrt(alpha)
        Tensor mean = ops::scale(ops::sub(z, ops::scale(eps_pred, coef)),
                                 1.0f / std::sqrt(alpha));
        if (t > 0) {
            const float sigma = std::sqrt(schedule_.beta(t));
            const Tensor noise = Tensor::randn(shape, rng);
            mean = ops::add(mean, ops::scale(noise, sigma));
        }
        z = std::move(mean);
    }
    return z;
}

std::vector<int> ddim_timestep_subsequence(const DdimConfig& config,
                                           int schedule_steps) {
    const int inference =
        std::clamp(config.inference_steps, 1, schedule_steps);
    std::vector<int> timesteps;
    timesteps.reserve(static_cast<std::size_t>(inference));
    for (int i = inference - 1; i >= 0; --i) {
        timesteps.push_back((i * schedule_steps) / inference);
    }
    return timesteps;
}

BatchedDdimScheduler::BatchedDdimScheduler(const UNet& unet,
                                           const NoiseSchedule& schedule)
    : unet_(unet), schedule_(schedule) {}

std::uint64_t BatchedDdimScheduler::admit(SamplerJob job) {
    assert(job.rng != nullptr);
    const std::uint64_t id = next_id_++;
    batch_metrics().joins->inc();

    Request request;
    request.id = id;
    request.timesteps =
        ddim_timestep_subsequence(job.config, schedule_.steps());
    switch (job.kind) {
        case SamplerJob::Kind::kSample:
            request.z = Tensor::randn(job.shape, *job.rng);
            break;
        case SamplerJob::Kind::kEdit: {
            if (!std::isfinite(job.strength)) {
                // NaN sails straight through std::clamp, and the
                // (1 - s) * (n - 1) size_t cast below would be UB.
                // Callers validate at their boundaries; this is the
                // engine's last line of defence.
                retire(id, Tensor(), /*cancelled=*/false);
                return id;
            }
            const float clamped = std::clamp(job.strength, 0.05f, 1.0f);
            // Start at the subsequence index whose timestep matches the
            // strength.
            request.cursor = static_cast<std::size_t>(
                (1.0f - clamped) *
                static_cast<float>(request.timesteps.size() - 1));
            const int t_start = request.timesteps[request.cursor];
            const Tensor noise = Tensor::randn(job.source.shape(), *job.rng);
            request.z = schedule_.q_sample(job.source, t_start, noise);
            break;
        }
        case SamplerJob::Kind::kInpaint:
            assert(job.mask.same_shape(job.source));
            request.z = Tensor::randn(job.source.shape(), *job.rng);
            break;
    }
    request.job = std::move(job);
    active_.push_back(std::move(request));
    return id;
}

void BatchedDdimScheduler::retire(std::uint64_t id, Tensor latent,
                                  bool cancelled) {
    finished_.push_back({id, std::move(latent), cancelled});
    batch_metrics().retired->inc();
}

std::vector<Tensor> BatchedDdimScheduler::batched_guided_eps(
    const std::vector<const Request*>& requests,
    const std::vector<const Tensor*>& latents,
    const std::vector<int>& timesteps) const {
    // Inference only: the forward below records no graph, whether it
    // runs on the step batcher's thread or inline.
    const autograd::NoGradGuard no_grad;
    const int total_steps = schedule_.steps();

    // A CFG request contributes a conditional and an unconditional row
    // to the same forward (the sequential path ran them as two
    // denoise() calls; every UNet op is per-sample independent, so the
    // packed rows are bitwise identical to the separate calls). Rows
    // whose latent shapes differ are partitioned into one forward per
    // shape group, first-seen order.
    struct Row {
        std::size_t request;
        bool unconditional;
    };
    std::vector<std::vector<int>> shapes;
    std::vector<std::vector<Row>> groups;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const std::vector<int>& shape = latents[i]->shape();
        std::size_t g = 0;
        while (g < shapes.size() && shapes[g] != shape) ++g;
        if (g == shapes.size()) {
            shapes.push_back(shape);
            groups.emplace_back();
        }
        groups[g].push_back({i, false});
        if (cfg_active(requests[i]->job)) groups[g].push_back({i, true});
    }

    std::vector<Tensor> eps_cond(requests.size());
    std::vector<Tensor> eps_uncond(requests.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const std::vector<Row>& rows = groups[g];
        const std::vector<int>& shape = shapes[g];
        const std::size_t per_row =
            static_cast<std::size_t>(tensor::shape_size(shape));
        Tensor packed({static_cast<int>(rows.size()), shape[0], shape[1],
                       shape[2]});
        std::vector<int> row_t;
        std::vector<Tensor> row_cond;
        row_t.reserve(rows.size());
        row_cond.reserve(rows.size());
        for (std::size_t r = 0; r < rows.size(); ++r) {
            const Row& row = rows[r];
            std::memcpy(packed.data() + r * per_row,
                        latents[row.request]->data(),
                        per_row * sizeof(float));
            row_t.push_back(timesteps[row.request]);
            row_cond.push_back(
                row.unconditional
                    ? Tensor()
                    : requests[row.request]->job.condition_tokens);
        }
        const Var out = unet_.forward(Var::constant(std::move(packed)),
                                      row_t, total_steps, row_cond);
        const Tensor& value = out.value();
        for (std::size_t r = 0; r < rows.size(); ++r) {
            const Row& row = rows[r];
            Tensor prediction(shape);
            std::memcpy(prediction.data(), value.data() + r * per_row,
                        per_row * sizeof(float));
            Tensor eps = schedule_.to_epsilon(
                prediction, *latents[row.request], timesteps[row.request],
                requests[row.request]->job.config.parameterization);
            (row.unconditional ? eps_uncond : eps_cond)[row.request] =
                std::move(eps);
        }
    }

    std::vector<Tensor> result(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (!cfg_active(requests[i]->job)) {
            result[i] = std::move(eps_cond[i]);
            continue;
        }
        // eps = eps_uncond + g * (eps_cond - eps_uncond)
        result[i] = ops::add(
            eps_uncond[i],
            ops::scale(ops::sub(eps_cond[i], eps_uncond[i]),
                       requests[i]->job.config.guidance_scale));
    }
    return result;
}

std::size_t BatchedDdimScheduler::step() {
    // Step-boundary cancellation poll: the same point the sequential
    // loop polled, before any denoiser work.
    for (std::size_t i = 0; i < active_.size();) {
        Request& request = active_[i];
        if (request.job.config.should_cancel &&
            request.job.config.should_cancel()) {
            const std::uint64_t id = request.id;
            active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
            retire(id, Tensor(), /*cancelled=*/true);
        } else {
            ++i;
        }
    }
    if (active_.empty()) return 0;

    // Per-step timing feeds the aero_diffusion_step_ms histogram; raw
    // clock reads rather than an obs::Span because one span per
    // denoising step would flood the trace ring.
    const bool timed = obs::enabled();
    const std::int64_t step_start = timed ? obs::default_clock().now_ns() : 0;
    const std::size_t participants = active_.size();

    std::vector<const Request*> requests;
    std::vector<const Tensor*> latents;
    std::vector<int> step_t;
    requests.reserve(participants);
    latents.reserve(participants);
    step_t.reserve(participants);
    for (const Request& request : active_) {
        requests.push_back(&request);
        latents.push_back(&request.z);
        step_t.push_back(request.timesteps[request.cursor]);
    }
    std::vector<Tensor> eps = batched_guided_eps(requests, latents, step_t);

    // Per-request scalar coefficients: the exact math of the sequential
    // loop, evaluated at each request's own cursor.
    struct Coef {
        int t = 0;
        int t_prev = -1;
        float alpha_bar_prev = 1.0f;
        float sigma = 0.0f;
        float dir_coef = 0.0f;
    };
    std::vector<Coef> coef(participants);
    for (std::size_t i = 0; i < participants; ++i) {
        const Request& request = active_[i];
        Coef& c = coef[i];
        c.t = request.timesteps[request.cursor];
        c.t_prev = (request.cursor + 1 < request.timesteps.size())
                       ? request.timesteps[request.cursor + 1]
                       : -1;
        c.alpha_bar_prev =
            c.t_prev >= 0 ? schedule_.alpha_bar(c.t_prev) : 1.0f;
        c.sigma = request.job.config.eta *
                  std::sqrt((1.0f - c.alpha_bar_prev) /
                            (1.0f - schedule_.alpha_bar(c.t))) *
                  std::sqrt(1.0f -
                            schedule_.alpha_bar(c.t) / c.alpha_bar_prev);
        c.dir_coef = std::sqrt(std::max(
            1.0f - c.alpha_bar_prev - c.sigma * c.sigma, 0.0f));
    }
    const auto ddim_update = [&](const Coef& c, const Tensor& z,
                                 const Tensor& noise_estimate) {
        const Tensor z0 = schedule_.predict_z0(z, c.t, noise_estimate);
        return ops::add(ops::scale(z0, std::sqrt(c.alpha_bar_prev)),
                        ops::scale(noise_estimate, c.dir_coef));
    };

    // Heun predictor-corrector subset. Gate on the *config*, not the
    // per-step sigma: with eta > 0 sigma can still round to exactly 0
    // on flat stretches of alpha_bar (tiny beta), and the stochastic
    // path must never silently take the deterministic
    // predictor-corrector branch.
    std::vector<std::size_t> heun;
    for (std::size_t i = 0; i < participants; ++i) {
        const Request& request = active_[i];
        if (request.job.config.use_heun && request.job.config.eta == 0.0f &&
            coef[i].t_prev >= 0) {
            heun.push_back(i);
        }
    }
    if (!heun.empty()) {
        std::vector<Tensor> euler(heun.size());
        for (std::size_t k = 0; k < heun.size(); ++k) {
            euler[k] =
                ddim_update(coef[heun[k]], active_[heun[k]].z, eps[heun[k]]);
        }
        // The corrector doubles the NFE; poll cancellation again before
        // its second denoiser evaluation so deadline-cancellation
        // latency stays one evaluation, not one full Heun step.
        std::vector<std::size_t> live;
        for (std::size_t k = 0; k < heun.size(); ++k) {
            Request& request = active_[heun[k]];
            if (request.job.config.should_cancel &&
                request.job.config.should_cancel()) {
                request.mid_cancelled = true;
            } else {
                live.push_back(k);
            }
        }
        if (!live.empty()) {
            std::vector<const Request*> heun_requests;
            std::vector<const Tensor*> heun_latents;
            std::vector<int> heun_t;
            heun_requests.reserve(live.size());
            heun_latents.reserve(live.size());
            heun_t.reserve(live.size());
            for (const std::size_t k : live) {
                heun_requests.push_back(&active_[heun[k]]);
                heun_latents.push_back(&euler[k]);
                heun_t.push_back(coef[heun[k]].t_prev);
            }
            const std::vector<Tensor> eps2 =
                batched_guided_eps(heun_requests, heun_latents, heun_t);
            for (std::size_t j = 0; j < live.size(); ++j) {
                const std::size_t i = heun[live[j]];
                eps[i] = ops::scale(ops::add(eps[i], eps2[j]), 0.5f);
            }
        }
    }

    // Final per-request update: stochastic noise and the inpaint
    // re-imposition draw from each request's OWN rng, in the same order
    // as the sequential loop — the core of the bitwise contract.
    for (std::size_t i = 0; i < participants; ++i) {
        Request& request = active_[i];
        if (request.mid_cancelled) continue;
        const Coef& c = coef[i];
        Tensor next = ddim_update(c, request.z, eps[i]);
        if (c.sigma > 0.0f && c.t_prev >= 0) {
            next = ops::add(
                next, ops::scale(Tensor::randn(request.z.shape(),
                                               *request.job.rng),
                                 c.sigma));
        }
        if (request.job.kind == SamplerJob::Kind::kInpaint) {
            // Re-impose the known region at the new noise level.
            Tensor reference = request.job.source;
            if (c.t_prev >= 0) {
                const Tensor noise =
                    Tensor::randn(request.z.shape(), *request.job.rng);
                reference =
                    schedule_.q_sample(request.job.source, c.t_prev, noise);
            }
            // z = mask * z + (1 - mask) * reference
            Tensor kept = ops::mul(next, request.job.mask);
            Tensor imposed = ops::mul(
                reference,
                ops::add_scalar(ops::neg(request.job.mask), 1.0f));
            next = ops::add(kept, imposed);
        }
        request.z = std::move(next);
        ++request.cursor;
    }

    // A batched step amortises `participants` requests: each records
    // elapsed / participants, keeping the aero_diffusion_step_ms
    // histogram in per-request units at every batch size.
    if (timed) {
        const double elapsed_ms =
            static_cast<double>(obs::default_clock().now_ns() - step_start) *
            1e-6;
        const double per_request =
            elapsed_ms / static_cast<double>(participants);
        for (std::size_t i = 0; i < participants; ++i) {
            step_histogram().observe(per_request);
        }
        batch_metrics().size->observe(static_cast<double>(participants));
    }
    batch_metrics().steps->inc();

    // Retire finished and mid-step-cancelled jobs; the rest carry over
    // to the next step boundary, where new admissions may join them.
    for (std::size_t i = 0; i < active_.size();) {
        Request& request = active_[i];
        const bool done = request.cursor >= request.timesteps.size();
        if (request.mid_cancelled || done) {
            const std::uint64_t id = request.id;
            const bool cancelled = request.mid_cancelled;
            Tensor latent = cancelled ? Tensor() : std::move(request.z);
            active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
            retire(id, std::move(latent), cancelled);
        } else {
            ++i;
        }
    }
    return active_.size();
}

std::vector<BatchedDdimScheduler::Finished>
BatchedDdimScheduler::take_finished() {
    std::vector<Finished> finished = std::move(finished_);
    finished_.clear();
    return finished;
}

Tensor run_sampler_job(const UNet& unet, const NoiseSchedule& schedule,
                       SamplerJob job) {
    BatchedDdimScheduler scheduler(unet, schedule);
    const std::uint64_t id = scheduler.admit(std::move(job));
    while (scheduler.step() > 0) {
    }
    for (BatchedDdimScheduler::Finished& finished :
         scheduler.take_finished()) {
        if (finished.id == id) return std::move(finished.latent);
    }
    return Tensor();
}

Tensor DdimSampler::sample(const std::vector<int>& shape,
                           const Tensor& condition_tokens,
                           util::Rng& rng) const {
    SamplerJob job;
    job.kind = SamplerJob::Kind::kSample;
    job.shape = shape;
    job.condition_tokens = condition_tokens;
    job.config = config_;
    job.rng = &rng;
    return run_sampler_job(unet_, schedule_, std::move(job));
}

Tensor DdimSampler::edit(const Tensor& source_latent,
                         const Tensor& condition_tokens, float strength,
                         util::Rng& rng) const {
    SamplerJob job;
    job.kind = SamplerJob::Kind::kEdit;
    job.source = source_latent;
    job.strength = strength;
    job.condition_tokens = condition_tokens;
    job.config = config_;
    job.rng = &rng;
    return run_sampler_job(unet_, schedule_, std::move(job));
}

Tensor DdimSampler::inpaint(const Tensor& source_latent, const Tensor& mask,
                            const Tensor& condition_tokens,
                            util::Rng& rng) const {
    assert(mask.same_shape(source_latent));
    SamplerJob job;
    job.kind = SamplerJob::Kind::kInpaint;
    job.source = source_latent;
    job.mask = mask;
    job.condition_tokens = condition_tokens;
    job.config = config_;
    job.rng = &rng;
    return run_sampler_job(unet_, schedule_, std::move(job));
}

}  // namespace aero::diffusion
