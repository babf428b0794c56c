#pragma once
// AeroDiffusion end-to-end pipeline (the paper's contribution) and its
// conditioning variants, which double as the conditional baselines of
// Table I. A pipeline owns a UNet denoiser plus a trainable condition
// encoder; the frozen substrate (CLIP / autoencoder / detector) is
// shared across models so comparisons isolate the conditioning.

#include <functional>
#include <optional>

#include "core/condition.hpp"
#include "diffusion/sampler.hpp"
#include "diffusion/trainer.hpp"
#include "mem/cache.hpp"

namespace aero::core {

/// Conditioning recipe (see DESIGN.md, experiment index).
enum class ModelVariant {
    kAeroDiffusion,     ///< keypoint captions + BLIP fusion + f̂_X (ours)
    kStableDiffusion,   ///< generic captions, text-only conditioning
    kArldm,             ///< SD + BLIP fusion + autoregressive history token
    kVersatile,         ///< text-only, multi-flow (text/image) training
    kMakeAScene,        ///< text + scene-layout token
};

struct PipelineConfig {
    ModelVariant variant = ModelVariant::kAeroDiffusion;
    std::string name = "AeroDiffusion";

    bool use_keypoint_captions = true;  ///< ours vs generic BLIP captions
    /// Optional caption override (Table II trains the same architecture
    /// on captions from different simulated LLMs). Must stay alive for
    /// the pipeline's lifetime and align with the dataset splits.
    const std::vector<text::Caption>* custom_train_captions = nullptr;
    const std::vector<text::Caption>* custom_test_captions = nullptr;
    bool use_blip_fusion = true;        ///< include C_xg
    bool use_image_feature = true;      ///< include the f̂_X row at all
    bool use_object_detection = true;   ///< ROI-augment the f̂_X row
    int max_rois = 12;

    int unet_base_channels = 24;
    float lr = 2e-3f;
    float condition_dropout = 0.1f;
    /// Latent models default to v-prediction: it balances denoising
    /// information across timesteps so conditioning pays off under small
    /// budgets (deviation from the paper's Eq. 6 epsilon target,
    /// documented in DESIGN.md).
    diffusion::Parameterization parameterization =
        diffusion::Parameterization::kV;

    /// Global L2 gradient-norm clip applied every fit() step.
    float grad_clip = 5.0f;
    /// Divergence detection / rollback policy guarding fit().
    diffusion::SentinelConfig sentinel;
    /// When non-empty and `checkpoint_interval > 0`, fit() writes
    /// save_checkpoint(checkpoint_path, step) every interval steps; with
    /// `resume == true` it first restores that checkpoint (if present)
    /// and continues from the recorded step.
    std::string checkpoint_path;
    int checkpoint_interval = 0;
    bool resume = false;
    /// Test-only fault injection; same points as the trainer ("param",
    /// "grad", "loss", plus arm_spike on the loss).
    util::FaultInjector* fault_injector = nullptr;

    /// Ready-made configurations.
    static PipelineConfig aero_diffusion();
    static PipelineConfig stable_diffusion();
    static PipelineConfig arldm();
    static PipelineConfig versatile_diffusion();
    static PipelineConfig make_a_scene();
    /// Table IV ablation row: which components are enabled.
    static PipelineConfig ablation(bool with_blip, bool with_keypoint_llm,
                                   bool with_object_detection);
};

/// What generate() synthesises from the reference. All three kinds are
/// one DDIM reverse process that differs only in its start latent and
/// mask (diffusion::SamplerJob::Kind):
///   * kSample — a fresh sample from noise;
///   * kEdit — SDEdit-style: anchored on the reference image's latent,
///     re-noised to `strength` * T, so low strengths preserve layout
///     while the target caption steers the rest ("closer viewpoint"
///     transitions, Table III);
///   * kInpaint — RePaint-style latent inpainting: only the pixel-space
///     `region` is regenerated, the rest of the reference is preserved.
/// Fields a kind does not use are ignored. Every member has a default
/// initializer, so a designated initializer may name only what its kind
/// reads (`{.kind = Kind::kEdit, .strength = 0.3f}`) without tripping
/// -Wmissing-field-initializers.
struct GenerateTask {
    diffusion::SamplerJob::Kind kind = diffusion::SamplerJob::Kind::kSample;
    float strength = 0.5f;        ///< kEdit; must be finite
    scene::BoundingBox region{};  ///< kInpaint; clamped (see clamp_region)
};

/// Per-call control block for generate(), used by the serving layer.
/// Inputs: a cancellation predicate polled between denoising steps, a
/// switch that forces the unconditional path (open circuit breaker),
/// and a fault injector for the "condition_encoder" point. Outputs
/// report what actually happened so the caller can type the outcome
/// instead of inspecting pixels.
struct GenerateControl {
    /// Polled between denoising steps; true abandons the run (the
    /// returned image is empty, never half-rendered).
    std::function<bool()> should_cancel;
    /// Skip the condition encoder entirely and sample unconditionally
    /// (marked degraded). Used while a circuit breaker is open.
    bool force_unconditional = false;
    /// Probabilistic "condition_encoder" faults (tests / soak benches).
    util::FaultInjector* fault_injector = nullptr;
    /// When non-null, the sampling loop is handed off to this executor
    /// as a diffusion::SamplerJob (the serve layer's continuous step
    /// batcher) instead of running inline. The executor receives the
    /// caller's Rng by pointer and draws from it in sequential order,
    /// so output is bitwise identical either way; null (the default)
    /// keeps generate() a true no-op relative to the pre-batching code
    /// path.
    diffusion::SamplerExecutor* executor = nullptr;
    /// Skip the condition cache for this call. Circuit-breaker half-open
    /// probes must exercise the real encoder path — a cache hit would
    /// report the breaker healthy without testing the thing that broke.
    bool bypass_condition_cache = false;

    bool cancelled = false;  ///< run abandoned via should_cancel
    bool degraded = false;   ///< sampled unconditionally (fallback/forced)
    bool condition_cached = false;  ///< condition served from the LRU cache
    std::string error;       ///< non-empty when input validation rejected
};

class AeroDiffusionPipeline {
public:
    AeroDiffusionPipeline(const PipelineConfig& config,
                          const Substrate& substrate, util::Rng& rng);

    /// Trains the denoiser and condition encoder jointly (Eq. 6).
    diffusion::DiffusionTrainStats fit(util::Rng& rng);

    /// Synthesises an image conditioned on a reference sample (source of
    /// image features / ROIs), its source caption G_i, and the target
    /// caption G'_i (Table III changes G' to move the viewpoint).
    /// `sample_index` feeds variant-specific extras (ARLDM history);
    /// `task` picks a fresh sample, an edit or an inpaint (GenerateTask).
    /// The reference (and a kEdit strength / kInpaint region) is
    /// validated up front: a rejected call returns an empty image — with
    /// the reason in `control->error` when a control block is given —
    /// instead of propagating non-finite pixels into the encoders.
    image::Image generate(const scene::AerialSample& reference,
                          const std::string& source_caption,
                          const std::string& target_caption, util::Rng& rng,
                          int sample_index = -1,
                          GenerateControl* control = nullptr,
                          const GenerateTask& task = {}) const;

    /// Validates a reference sample for generate(): the image must be
    /// present, image_size x image_size (the substrate budget's), and
    /// contain only finite pixels. Fills `error` on failure.
    static bool validate_reference(const scene::AerialSample& reference,
                                   int image_size, std::string* error);

    /// Clamps `region` into an image_size x image_size frame. Rejects
    /// (nullopt + `error`) non-finite coordinates, non-positive sizes,
    /// and regions entirely outside the image; partial overlaps are
    /// clamped to the intersection.
    static std::optional<scene::BoundingBox> clamp_region(
        const scene::BoundingBox& region, int image_size,
        std::string* error);

    /// The captions this model trains on (per its captioner choice).
    const std::vector<text::Caption>& train_captions() const;
    const std::vector<text::Caption>& test_captions() const;

    const std::string& name() const { return config_.name; }
    const PipelineConfig& config() const { return config_; }
    int parameter_count() const;

    /// Checkpoints the trained weights (denoiser + condition encoder) to
    /// `<path>.unet` / `<path>.cond`. The substrate is NOT included; a
    /// loaded pipeline must be constructed against the same substrate
    /// configuration.
    bool save(const std::string& path) const;
    /// Restores weights saved by save(); returns false on any mismatch.
    bool load(const std::string& path);

    /// save() plus a `<path>.meta.json` sidecar recording the checkpoint
    /// format version, pipeline name, and training step reached, so a
    /// later run can resume mid-training.
    bool save_checkpoint(const std::string& path, int step) const;
    /// Restores a save_checkpoint() snapshot. Rejects missing/malformed
    /// metadata and mismatched checkpoint formats; on success writes the
    /// recorded step into `*resume_step` (when non-null).
    bool load_checkpoint(const std::string& path, int* resume_step = nullptr);

    const ConditionEncoder& condition_encoder() const {
        return condition_encoder_;
    }

    /// Live entries in this pipeline's condition cache (stats / tests).
    /// The cache is consulted by every generate() call unless gated off
    /// (AERO_COND_CACHE=0) or bypassed per-call, and invalidated by
    /// load()/fit() — see DESIGN.md §17.
    int condition_cache_entries() const { return condition_cache_.entries(); }

    /// Read-only access to the denoiser and schedule for serve-side
    /// batching engines (serve::StepBatcher builds its
    /// diffusion::BatchedDdimScheduler over them). Safe to share across
    /// threads: inference never mutates model state.
    const diffusion::UNet& unet() const { return unet_; }
    const diffusion::NoiseSchedule& noise_schedule() const {
        return schedule_;
    }

private:
    ConditionFeatures features_for(const scene::AerialSample& sample,
                                   const std::string& caption,
                                   const std::string& target_caption,
                                   int sample_index, bool is_train) const;
    /// Variant-specific extra condition rows.
    Tensor extra_tokens(const scene::AerialSample& sample, int sample_index,
                        bool is_train) const;
    /// Encodes `features`, but degrades to the unconditional null token
    /// (empty tensor, logged) when the encoding is non-finite — so a
    /// corrupted encoder yields a plain sample instead of NaN images.
    Tensor checked_condition(const ConditionFeatures& features,
                             GenerateControl* control) const;

    /// The condition span of generate(): handles the forced-
    /// unconditional and injected-fault short-circuits, then consults
    /// the condition cache (unless gated off or bypassed), and only on a
    /// miss runs features_for + checked_condition. Finite, non-degraded
    /// encodings are inserted for the next identical call.
    Tensor condition_for(const scene::AerialSample& reference,
                         const std::string& source_caption,
                         const std::string& target_caption, int sample_index,
                         GenerateControl* control) const;

    /// Cache identity of a condition span: canonical captions
    /// (util::append_canonical_prompt) + a content hash of the
    /// reference scene (pixels, ground-truth boxes) + the sample index
    /// feeding variant-specific extra tokens.
    std::string condition_cache_key(const scene::AerialSample& reference,
                                    const std::string& source_caption,
                                    const std::string& target_caption,
                                    int sample_index) const;

    PipelineConfig config_;
    const Substrate* substrate_;
    diffusion::NoiseSchedule schedule_;
    diffusion::UNet unet_;
    ConditionEncoder condition_encoder_;
    mutable mem::ConditionCache<Tensor> condition_cache_;
};

}  // namespace aero::core
