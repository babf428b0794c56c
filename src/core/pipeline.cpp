#include "core/pipeline.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace aero::core {

PipelineConfig PipelineConfig::aero_diffusion() { return PipelineConfig{}; }

PipelineConfig PipelineConfig::stable_diffusion() {
    PipelineConfig config;
    config.variant = ModelVariant::kStableDiffusion;
    config.name = "Stable Diffusion";
    config.use_keypoint_captions = false;
    config.use_blip_fusion = true;  // Table I SD == ablation row 2 (+BLIP)
    config.use_image_feature = false;
    config.use_object_detection = false;
    return config;
}

PipelineConfig PipelineConfig::arldm() {
    PipelineConfig config;
    config.variant = ModelVariant::kArldm;
    config.name = "ARLDM";
    config.use_keypoint_captions = false;
    config.use_blip_fusion = true;
    config.use_image_feature = false;
    config.use_object_detection = false;
    return config;
}

PipelineConfig PipelineConfig::versatile_diffusion() {
    PipelineConfig config;
    config.variant = ModelVariant::kVersatile;
    config.name = "Versatile Diffusion";
    config.use_keypoint_captions = false;
    config.use_blip_fusion = false;
    config.use_image_feature = false;
    config.use_object_detection = false;
    return config;
}

PipelineConfig PipelineConfig::make_a_scene() {
    PipelineConfig config;
    config.variant = ModelVariant::kMakeAScene;
    config.name = "Make-a-Scene";
    config.use_keypoint_captions = false;
    config.use_blip_fusion = false;
    config.use_image_feature = false;
    config.use_object_detection = false;
    return config;
}

PipelineConfig PipelineConfig::ablation(bool with_blip,
                                        bool with_keypoint_llm,
                                        bool with_object_detection) {
    PipelineConfig config;
    config.variant = ModelVariant::kAeroDiffusion;
    config.use_blip_fusion = with_blip;
    config.use_keypoint_captions = with_keypoint_llm;
    config.use_object_detection = with_object_detection;
    // The f̂_X row only enters once object detection enables it, matching
    // the ablation's "OD" column; earlier rows are text(+fusion)-only.
    config.use_image_feature = with_object_detection;
    config.name = "ablation";
    return config;
}

namespace {

diffusion::UNetConfig unet_config_for(const PipelineConfig& config,
                                      const Substrate& substrate) {
    diffusion::UNetConfig unet;
    unet.in_channels = substrate.autoencoder->config().latent_channels;
    unet.base_channels = config.unet_base_channels;
    unet.cond_dim = substrate.embed_config.dim;
    unet.time_dim = 32;
    return unet;
}

/// Deterministic random projection used for Make-a-Scene layout tokens.
tensor::Tensor layout_projection(int rows, int cols) {
    util::Rng rng(0x5ce9e);
    return tensor::Tensor::randn({rows, cols}, rng, 0.0f, 0.5f);
}

}  // namespace

AeroDiffusionPipeline::AeroDiffusionPipeline(const PipelineConfig& config,
                                             const Substrate& substrate,
                                             util::Rng& rng)
    : config_(config),
      substrate_(&substrate),
      schedule_({substrate.budget.schedule_steps, 0.001f, 0.012f}),
      unet_(unet_config_for(config, substrate), rng),
      condition_encoder_(substrate.embed_config, config.use_blip_fusion,
                         config.use_image_feature,
                         config.use_object_detection, rng) {}

const std::vector<text::Caption>& AeroDiffusionPipeline::train_captions()
    const {
    if (config_.custom_train_captions) return *config_.custom_train_captions;
    return config_.use_keypoint_captions ? substrate_->keypoint_train
                                         : substrate_->generic_train;
}

const std::vector<text::Caption>& AeroDiffusionPipeline::test_captions()
    const {
    if (config_.custom_test_captions) return *config_.custom_test_captions;
    return config_.use_keypoint_captions ? substrate_->keypoint_test
                                         : substrate_->generic_test;
}

int AeroDiffusionPipeline::parameter_count() const {
    return unet_.parameter_count() + condition_encoder_.parameter_count();
}

bool AeroDiffusionPipeline::save(const std::string& path) const {
    return nn::save_parameters(unet_, path + ".unet") &&
           nn::save_parameters(condition_encoder_, path + ".cond");
}

bool AeroDiffusionPipeline::load(const std::string& path) {
    const bool ok = nn::load_parameters(unet_, path + ".unet") &&
                    nn::load_parameters(condition_encoder_, path + ".cond");
    // New encoder weights make every cached condition stale.
    if (ok) condition_cache_.invalidate_all();
    return ok;
}

bool AeroDiffusionPipeline::save_checkpoint(const std::string& path,
                                            int step) const {
    if (!save(path)) return false;
    util::JsonValue meta = util::JsonValue::object();
    meta.set("format", static_cast<int>(nn::kCheckpointVersion));
    meta.set("name", config_.name);
    meta.set("step", step);
    return meta.write_file(path + ".meta.json");
}

bool AeroDiffusionPipeline::load_checkpoint(const std::string& path,
                                            int* resume_step) {
    const std::string meta_path = path + ".meta.json";
    util::JsonValue meta;
    std::string error;
    if (!util::json_parse_file(meta_path, &meta, &error)) {
        util::log_warn() << "checkpoint " << meta_path
                         << " rejected: " << error;
        return false;
    }
    const util::JsonValue* format = meta.find("format");
    if (!format ||
        format->as_number(-1.0) != static_cast<double>(nn::kCheckpointVersion)) {
        util::log_warn() << "checkpoint " << meta_path
                         << " rejected: unsupported format (want v"
                         << nn::kCheckpointVersion << ")";
        return false;
    }
    if (!load(path)) return false;
    if (resume_step) {
        const util::JsonValue* step = meta.find("step");
        *resume_step = step ? static_cast<int>(step->as_number(0.0)) : 0;
    }
    return true;
}

Tensor AeroDiffusionPipeline::extra_tokens(const scene::AerialSample& sample,
                                           int sample_index,
                                           bool is_train) const {
    switch (config_.variant) {
        case ModelVariant::kArldm: {
            // Autoregressive "story history": the CLIP image embedding of
            // the previous sample in the split.
            const auto& split = is_train ? substrate_->dataset->train()
                                         : substrate_->dataset->test();
            if (split.empty()) return Tensor();
            const int prev =
                sample_index <= 0 ? static_cast<int>(split.size()) - 1
                                  : sample_index - 1;
            return substrate_->clip->embed_image_eval(
                split[static_cast<std::size_t>(prev)].image);
        }
        case ModelVariant::kMakeAScene: {
            // Coarse 4x4 layout occupancy from the scene annotation,
            // projected into the condition space.
            const int grid = 4;
            Tensor occupancy({1, grid * grid});
            const float size =
                static_cast<float>(substrate_->budget.image_size);
            for (const scene::BoundingBox& box : sample.gt_boxes) {
                const int gx = std::clamp(
                    static_cast<int>(box.cx() / size * grid), 0, grid - 1);
                const int gy = std::clamp(
                    static_cast<int>(box.cy() / size * grid), 0, grid - 1);
                occupancy[gy * grid + gx] += 0.1f;
            }
            // occupancy [1,16] x projection [16, d]
            const Tensor projection =
                layout_projection(grid * grid, substrate_->embed_config.dim);
            return tensor::matmul(occupancy, projection);
        }
        default: return Tensor();
    }
}

ConditionFeatures AeroDiffusionPipeline::features_for(
    const scene::AerialSample& sample, const std::string& caption,
    const std::string& target_caption, int sample_index,
    bool is_train) const {
    ConditionFeatures features = compute_condition_features(
        *substrate_, sample, caption, target_caption,
        config_.use_object_detection, config_.max_rois);
    features.extra_tokens = extra_tokens(sample, sample_index, is_train);
    return features;
}

diffusion::DiffusionTrainStats AeroDiffusionPipeline::fit(util::Rng& rng) {
    // Training mutates the encoder from the first step on; drop cached
    // conditions now and again once the final (EMA-applied) weights land.
    condition_cache_.invalidate_all();
    const auto& train_split = substrate_->dataset->train();
    const auto& captions = train_captions();
    assert(train_split.size() == captions.size());
    assert(train_split.size() == substrate_->train_latents.size());

    // Cache frozen-encoder features per training sample (G' == G during
    // training: the model learns to reconstruct the described scene),
    // the whole split in one batched call.
    std::vector<ConditionInput> inputs;
    inputs.reserve(train_split.size());
    for (std::size_t i = 0; i < train_split.size(); ++i) {
        inputs.push_back(
            {&train_split[i], &captions[i].text, &captions[i].text});
    }
    std::vector<ConditionFeatures> features = compute_condition_features(
        *substrate_, inputs, config_.use_object_detection, config_.max_rois);
    for (std::size_t i = 0; i < train_split.size(); ++i) {
        features[i].extra_tokens =
            extra_tokens(train_split[i], static_cast<int>(i), true);
    }

    // Joint optimisation of theta (UNet) and the condition parameters.
    std::vector<Var> params = unet_.parameters();
    {
        const std::vector<Var> cond_params = condition_encoder_.parameters();
        params.insert(params.end(), cond_params.begin(), cond_params.end());
    }

    // Loaded before training starts, so the EMA shadow and the
    // sentinel's good-state snapshot both start from the restored weights.
    int start_step = 0;
    if (config_.resume && !config_.checkpoint_path.empty() &&
        load_checkpoint(config_.checkpoint_path, &start_step)) {
        util::log_info() << config_.name << ": resumed from checkpoint at step "
                         << start_step;
    }

    const Budget& budget = substrate_->budget;
    const diffusion::DiffusionTrainConfig train_config{
        .steps = budget.diffusion_steps,
        .batch_size = budget.batch_size,
        .lr = config_.lr,
        .condition_dropout = config_.condition_dropout,
        .parameterization = config_.parameterization,
        .grad_clip = config_.grad_clip,
        .sentinel = config_.sentinel,
        .fault_injector = config_.fault_injector,
    };
    const diffusion::TrainCondition condition = [&](int i, util::Rng& draw) {
        ConditionFeatures sample = features[static_cast<std::size_t>(i)];
        if (config_.variant == ModelVariant::kVersatile &&
            draw.bernoulli(0.5)) {
            // Multi-flow training: the text slot sometimes carries the
            // image embedding instead (Versatile's shared core).
            sample.clip_text = sample.clip_image;
        }
        return condition_encoder_.encode(sample);
    };
    const auto checkpoint = [&](int steps_done) {
        if (config_.checkpoint_path.empty() ||
            config_.checkpoint_interval <= 0 ||
            steps_done % config_.checkpoint_interval != 0) {
            return;
        }
        if (!save_checkpoint(config_.checkpoint_path, steps_done)) {
            util::log_warn() << config_.name << ": periodic checkpoint at step "
                             << steps_done << " failed to write "
                             << config_.checkpoint_path
                             << "; training continues";
        }
    };
    const diffusion::DiffusionTrainStats stats = diffusion::train_diffusion(
        unet_, schedule_, substrate_->train_latents, std::move(params),
        condition, train_config, rng, start_step, checkpoint);
    condition_cache_.invalidate_all();
    util::log_info() << config_.name << ": diffusion loss "
                     << stats.first_loss << " -> " << stats.tail_loss;
    return stats;
}

namespace {

diffusion::DdimConfig ddim_config_for(const PipelineConfig& config,
                                      const Budget& budget) {
    diffusion::DdimConfig ddim_config;
    ddim_config.inference_steps = budget.ddim_steps;
    ddim_config.guidance_scale = budget.guidance_scale;
    ddim_config.parameterization = config.parameterization;
    return ddim_config;
}

}  // namespace

bool AeroDiffusionPipeline::validate_reference(
    const scene::AerialSample& reference, int image_size, std::string* error) {
    const image::Image& img = reference.image;
    if (img.empty()) {
        if (error) *error = "reference image is empty";
        return false;
    }
    if (img.width() != image_size || img.height() != image_size) {
        if (error) {
            *error = "reference image is " + std::to_string(img.width()) +
                     "x" + std::to_string(img.height()) + ", expected " +
                     std::to_string(image_size) + "x" +
                     std::to_string(image_size);
        }
        return false;
    }
    for (const float v : img.data()) {
        if (!std::isfinite(v)) {
            if (error) *error = "reference image contains non-finite pixels";
            return false;
        }
    }
    return true;
}

std::optional<scene::BoundingBox> AeroDiffusionPipeline::clamp_region(
    const scene::BoundingBox& region, int image_size, std::string* error) {
    if (!std::isfinite(region.x) || !std::isfinite(region.y) ||
        !std::isfinite(region.w) || !std::isfinite(region.h)) {
        if (error) *error = "region has non-finite coordinates";
        return std::nullopt;
    }
    if (region.w <= 0.0f || region.h <= 0.0f) {
        if (error) *error = "region has non-positive size";
        return std::nullopt;
    }
    const float s = static_cast<float>(image_size);
    const float x0 = std::max(region.x, 0.0f);
    const float y0 = std::max(region.y, 0.0f);
    const float x1 = std::min(region.x + region.w, s);
    const float y1 = std::min(region.y + region.h, s);
    if (x0 >= x1 || y0 >= y1) {
        if (error) *error = "region lies entirely outside the image";
        return std::nullopt;
    }
    scene::BoundingBox clamped = region;
    clamped.x = x0;
    clamped.y = y0;
    clamped.w = x1 - x0;
    clamped.h = y1 - y0;
    return clamped;
}

Tensor AeroDiffusionPipeline::checked_condition(
    const ConditionFeatures& features, GenerateControl* control) const {
    const autograd::NoGradGuard no_grad;
    Tensor cond = condition_encoder_.encode(features).value();
    for (const float v : cond) {
        if (!std::isfinite(v)) {
            util::log_warn() << config_.name
                             << ": non-finite condition encoding; degrading "
                                "to unconditional sampling";
            if (control) control->degraded = true;
            return Tensor();
        }
    }
    return cond;
}

std::string AeroDiffusionPipeline::condition_cache_key(
    const scene::AerialSample& reference, const std::string& source_caption,
    const std::string& target_caption, int sample_index) const {
    // Canonical captions are semantically lossless for the encoders: the
    // vocabulary lowercases and splits on whitespace, so canonical twins
    // tokenise — and therefore encode — identically.
    std::string key;
    key.reserve(source_caption.size() + target_caption.size() + 24);
    util::append_canonical_prompt(key, source_caption);
    key += '|';
    util::append_canonical_prompt(key, target_caption);
    key += '|';
    // Scene identity: content-hash the reference pixels and annotation
    // (ROIs and extra tokens derive from them), chaining one fnv1a64.
    const std::vector<float>& pixels = reference.image.data();
    const int dims[2] = {reference.image.width(), reference.image.height()};
    std::uint64_t hash = util::fnv1a64(dims, sizeof(dims));
    hash = util::fnv1a64(pixels.data(), pixels.size() * sizeof(float), hash);
    for (const scene::BoundingBox& box : reference.gt_boxes) {
        const float fields[5] = {box.x, box.y, box.w, box.h, box.score};
        hash = util::fnv1a64(fields, sizeof(fields), hash);
        const int cls = static_cast<int>(box.cls);
        hash = util::fnv1a64(&cls, sizeof(cls), hash);
    }
    // sample_index feeds variant-specific extra tokens (ARLDM history).
    hash = util::fnv1a64(&sample_index, sizeof(sample_index), hash);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hash));
    key += hex;
    return key;
}

Tensor AeroDiffusionPipeline::condition_for(
    const scene::AerialSample& reference, const std::string& source_caption,
    const std::string& target_caption, int sample_index,
    GenerateControl* control) const {
    // Forced-unconditional and injected-fault short-circuits come first
    // and never touch the cache: a degraded call must behave identically
    // with caching on or off, and the injector must be drawn exactly
    // once per call.
    if (control && control->force_unconditional) {
        control->degraded = true;
        return Tensor();
    }
    util::FaultInjector* injector =
        control ? control->fault_injector : nullptr;
    if (injector && injector->should_fail("condition_encoder")) {
        util::log_warn() << config_.name
                         << ": injected condition-encoder fault; degrading "
                            "to unconditional sampling";
        control->degraded = true;
        return Tensor();
    }
    const bool use_cache =
        mem::cond_cache_enabled() &&
        !(control && control->bypass_condition_cache);
    std::string key;
    if (use_cache) {
        key = condition_cache_key(reference, source_caption, target_caption,
                                  sample_index);
        Tensor cached;
        if (condition_cache_.lookup(key, &cached)) {
            // The encoders are deterministic (determinism lint dirs
            // cover this layer), so the hit is bitwise identical to a
            // recompute — the caller's Rng is untouched either way.
            if (control) control->condition_cached = true;
            return cached;
        }
    }
    const ConditionFeatures features = features_for(
        reference, source_caption, target_caption, sample_index, false);
    Tensor cond = checked_condition(features, control);
    if (use_cache && !cond.empty()) {
        // Only finite, non-degraded encodings are cacheable; byte cost
        // is the value payload plus the key.
        condition_cache_.insert(
            key, cond,
            static_cast<long long>(cond.size()) *
                    static_cast<long long>(sizeof(float)) +
                static_cast<long long>(key.size()));
    }
    return cond;
}

namespace {

/// Rejection path of generate().
image::Image rejected(const std::string& name, const std::string& error,
                      GenerateControl* control) {
    util::log_error() << name << ": generate rejected: " << error;
    if (control) control->error = error;
    return image::Image();
}

/// Pixel-space box -> latent-space regenerate mask (1 = regenerate) over
/// a [channels, s, s] latent of an image_size x image_size image. The
/// far edges round up, so the mask covers every latent cell the box
/// touches.
Tensor inpaint_mask(const scene::BoundingBox& box, int channels, int s,
                    int image_size) {
    const float scale =
        static_cast<float>(s) / static_cast<float>(image_size);
    Tensor mask({channels, s, s});
    const int x0 = std::clamp(static_cast<int>(box.x * scale), 0, s - 1);
    const int y0 = std::clamp(static_cast<int>(box.y * scale), 0, s - 1);
    const int x1 = std::clamp(
        static_cast<int>(std::ceil((box.x + box.w) * scale)), x0 + 1, s);
    const int y1 = std::clamp(
        static_cast<int>(std::ceil((box.y + box.h) * scale)), y0 + 1, s);
    for (int c = 0; c < channels; ++c) {
        for (int y = y0; y < y1; ++y) {
            for (int x = x0; x < x1; ++x) {
                mask[(c * s + y) * s + x] = 1.0f;
            }
        }
    }
    return mask;
}

/// Per-stage latency histograms, resolved once; the spans below feed
/// them and attach to whatever obs::Trace the caller (a serve worker)
/// has active.
struct StageMetrics {
    obs::Histogram* condition;
    obs::Histogram* sample;
    obs::Histogram* decode;
};

/// Hands the sampling loop to the control's executor (the serve-side
/// continuous step batcher) when one is installed; otherwise runs the
/// job inline on a batch-of-one scheduler — the exact pre-batching code
/// path, so a null executor is a true no-op.
tensor::Tensor dispatch_job(const diffusion::UNet& unet,
                            const diffusion::NoiseSchedule& schedule,
                            GenerateControl* control,
                            diffusion::SamplerJob job) {
    if (control != nullptr && control->executor != nullptr) {
        return control->executor->execute(std::move(job));
    }
    return diffusion::run_sampler_job(unet, schedule, std::move(job));
}

const StageMetrics& stage_metrics() {
    static const StageMetrics metrics = [] {
        obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
        StageMetrics m;
        m.condition = &reg.histogram("aero_pipeline_condition_ms",
                                     "condition encode stage, ms",
                                     obs::default_ms_buckets());
        m.sample = &reg.histogram("aero_pipeline_sample_ms",
                                  "DDIM sampling loop, ms",
                                  obs::default_ms_buckets());
        m.decode = &reg.histogram("aero_pipeline_decode_ms",
                                  "latent -> image decode, ms",
                                  obs::default_ms_buckets());
        return m;
    }();
    return metrics;
}

}  // namespace

image::Image AeroDiffusionPipeline::generate(
    const scene::AerialSample& reference, const std::string& source_caption,
    const std::string& target_caption, util::Rng& rng, int sample_index,
    GenerateControl* control, const GenerateTask& task) const {
    using Kind = diffusion::SamplerJob::Kind;
    const int image_size = substrate_->budget.image_size;
    std::string error;
    if (!validate_reference(reference, image_size, &error)) {
        return rejected(config_.name, error, control);
    }
    // A NaN strength would sail through the sampler's std::clamp into a
    // size_t start-index cast (UB); reject it here like any other
    // malformed input, before touching the encoders.
    if (task.kind == Kind::kEdit && !std::isfinite(task.strength)) {
        return rejected(config_.name, "edit strength must be finite",
                        control);
    }
    std::optional<scene::BoundingBox> region;
    if (task.kind == Kind::kInpaint) {
        region = clamp_region(task.region, image_size, &error);
        if (!region) return rejected(config_.name, error, control);
    }
    Tensor cond;
    {
        const obs::Span span("condition", stage_metrics().condition);
        cond = condition_for(reference, source_caption, target_caption,
                             sample_index, control);
    }

    const auto& ae_config = substrate_->autoencoder->config();
    const int channels = ae_config.latent_channels;
    const int s = ae_config.latent_size();
    diffusion::SamplerJob job;
    job.kind = task.kind;
    if (region) job.mask = inpaint_mask(*region, channels, s, image_size);
    job.strength = task.strength;  // read by kEdit only
    job.condition_tokens = std::move(cond);
    job.config = ddim_config_for(config_, substrate_->budget);
    if (control) job.config.should_cancel = control->should_cancel;
    job.rng = &rng;
    Tensor latent;
    {
        const obs::Span span("sample", stage_metrics().sample);
        if (task.kind == Kind::kSample) {
            job.shape = {channels, s, s};
        } else {
            job.source = tensor::scale(
                substrate_->autoencoder->encode_image(reference.image),
                substrate_->latent_scale);
        }
        latent = dispatch_job(unet_, schedule_, control, std::move(job));
    }
    if (latent.empty()) {  // cancelled between denoising steps
        if (control) control->cancelled = true;
        return image::Image();
    }
    const obs::Span span("decode", stage_metrics().decode);
    // Undo the latent normalisation before decoding.
    latent = tensor::scale(latent, 1.0f / substrate_->latent_scale);
    return substrate_->autoencoder->decode_latent(latent);
}

}  // namespace aero::core
