#include "core/condition.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace aero::core {

namespace ag = aero::autograd;

namespace {

obs::Histogram& roi_fusion_histogram() {
    static obs::Histogram& histogram =
        obs::MetricsRegistry::instance().histogram(
            "aero_pipeline_roi_fusion_ms",
            "detection + ROI feature extraction, ms",
            obs::default_ms_buckets());
    return histogram;
}

/// Samples per pass of the batched call. A pass's image, caption and ROI
/// activations are live at once, and mem::Arena keeps the blocks they
/// free resident, so the pass size bounds what batching adds to fit()'s
/// peak RSS: 16 samples add about 1.3 MB, one 128-sample pass about
/// 18 MB, for no measurable speedup (DESIGN.md §18).
constexpr std::size_t kConditionPassSamples = 16;

/// Label-text embeddings [1, d] by class, each computed once per call.
using LabelEmbeddings = std::array<Tensor, scene::kNumObjectClasses>;

/// One pass: the image- and text-tower forwards are shared by the pass's
/// samples, and every kernel they run is row- or sample-independent
/// (conv2d and group_norm per sample, matmul and layer norm per row,
/// attention per segment), so each sample's features carry the bits of
/// encoding it alone.
void encode_pass(const Substrate& substrate,
                 std::span<const ConditionInput> pass,
                 bool use_object_detection, int max_rois,
                 LabelEmbeddings& labels, ConditionFeatures* out) {
    const embed::ClipModel& clip = *substrate.clip;
    const text::Vocabulary& vocab = text::Vocabulary::aerial();
    const int size = substrate.budget.image_size;
    const int n = static_cast<int>(pass.size());

    // One image-tower trunk forward: token grids, f_X and the CLIP image
    // embedding (embed_image_eval is normalize_rows of f_X).
    std::vector<image::Image> images;
    std::vector<Tensor> inputs;
    images.reserve(pass.size());
    inputs.reserve(pass.size());
    for (const ConditionInput& input : pass) {
        const image::Image& img = input.sample->image;
        images.push_back(img.width() == size && img.height() == size
                             ? img
                             : image::resize_bilinear(img, size, size));
        inputs.push_back(
            images.back().to_tensor_chw().reshaped({1, 3, size, size}));
    }
    const embed::ImageEncoder::Encoding encoded =
        clip.image_encoder().encode(Var::constant(tensor::concat(inputs, 0)));
    const Tensor& tokens = encoded.tokens.value();
    const Tensor& pooled = encoded.pooled.value();
    const Tensor clip_image = embed::normalize_rows(encoded.pooled).value();
    const int grid_tokens = tokens.dim(0) / n;
    for (int i = 0; i < n; ++i) {
        out[i].image_tokens = tensor::slice(tokens, 0, i * grid_tokens,
                                            (i + 1) * grid_tokens);
        out[i].global_feature = tensor::slice(pooled, 0, i, i + 1);
        out[i].clip_image = tensor::slice(clip_image, 0, i, i + 1);
    }

    // One text-tower forward over the captions, then every target that
    // differs from its caption; C_g pools the caption's own tokens when
    // the target equals it.
    std::vector<std::vector<int>> sequences;
    sequences.reserve(2 * pass.size());
    for (const ConditionInput& input : pass) {
        sequences.push_back(vocab.encode(*input.caption));
    }
    std::vector<int> target_rows(pass.size());
    for (int i = 0; i < n; ++i) {
        std::vector<int> target = vocab.encode(*pass[i].target_caption);
        if (target == sequences[i]) {
            target_rows[i] = i;
            continue;
        }
        target_rows[i] = static_cast<int>(sequences.size());
        sequences.push_back(std::move(target));
    }
    const embed::TextEncoder& text_encoder = clip.text_encoder();
    const embed::TextEncoder::TokenTable table =
        text_encoder.forward_tokens_stacked(sequences);
    const Tensor clip_text =
        embed::normalize_rows(text_encoder.pooled(table, target_rows))
            .value();
    for (int i = 0; i < n; ++i) {
        out[i].text_tokens = table.rows(i);
        out[i].clip_text = tensor::slice(clip_text, 0, i, i + 1);
    }

    if (!use_object_detection || !substrate.detector) return;
    // Per sample: one detector forward, then one image-tower forward over
    // its [R, 3, S, S] ROI batch.
    const obs::Span span("roi_fusion", &roi_fusion_histogram());
    for (int i = 0; i < n; ++i) {
        std::vector<scene::BoundingBox> boxes =
            substrate.detector->detect(images[i]);
        std::sort(boxes.begin(), boxes.end(),
                  [](const scene::BoundingBox& a, const scene::BoundingBox& b) {
                      return a.score > b.score;
                  });
        if (static_cast<int>(boxes.size()) > max_rois) {
            boxes.resize(static_cast<std::size_t>(max_rois));
        }
        if (boxes.empty()) continue;
        out[i].roi_features =
            clip.image_encoder()
                .forward(Var::constant(
                    detect::extract_rois(images[i], boxes, size)))
                .value();
        std::vector<Tensor> label_rows;
        label_rows.reserve(boxes.size());
        for (const scene::BoundingBox& box : boxes) {
            Tensor& label = labels[static_cast<std::size_t>(box.cls)];
            if (label.empty()) {
                label = text_encoder
                            .forward(vocab.encode(scene::class_name(box.cls)))
                            .value();
            }
            label_rows.push_back(label);
        }
        out[i].label_embeddings = tensor::concat(label_rows, 0);
    }
}

}  // namespace

std::vector<ConditionFeatures> compute_condition_features(
    const Substrate& substrate, const std::vector<ConditionInput>& inputs,
    bool use_object_detection, int max_rois) {
    const ag::NoGradGuard no_grad;
    std::vector<ConditionFeatures> features(inputs.size());
    LabelEmbeddings labels;
    const std::span<const ConditionInput> all(inputs);
    for (std::size_t begin = 0; begin < all.size();
         begin += kConditionPassSamples) {
        encode_pass(substrate,
                    all.subspan(begin, std::min(kConditionPassSamples,
                                                all.size() - begin)),
                    use_object_detection, max_rois, labels,
                    features.data() + begin);
    }
    return features;
}

ConditionFeatures compute_condition_features(const Substrate& substrate,
                                             const scene::AerialSample& sample,
                                             const std::string& caption,
                                             const std::string& target_caption,
                                             bool use_object_detection,
                                             int max_rois) {
    return std::move(compute_condition_features(
                         substrate, {{&sample, &caption, &target_caption}},
                         use_object_detection, max_rois)
                         .front());
}

ConditionEncoder::ConditionEncoder(const embed::EmbedConfig& config,
                                   bool use_blip_fusion,
                                   bool use_image_feature,
                                   bool use_region_augment, util::Rng& rng)
    : use_blip_fusion_(use_blip_fusion),
      use_image_feature_(use_image_feature),
      use_region_augment_(use_region_augment && use_image_feature),
      blip_(config, rng),
      augmenter_(config, rng) {
    if (use_blip_fusion_) register_child(blip_);
    if (use_image_feature_) register_child(augmenter_);
}

Var ConditionEncoder::encode(const ConditionFeatures& features) const {
    std::vector<Var> rows;

    // C_xg = BLIP(X_i, G_i): deep image-text fusion.
    if (use_blip_fusion_) {
        rows.push_back(blip_.forward(Var::constant(features.image_tokens),
                                     Var::constant(features.text_tokens)));
    }

    // C_g = CLIP(G'_i): target-caption semantics.
    rows.push_back(Var::constant(features.clip_text));

    // f̂_X: region-augmented image representation (Eq. 2-3). With
    // detection enabled the full attention-enhanced token set (enriched
    // global slot + per-region features) conditions the denoiser, so
    // small-object detail survives the pooling.
    if (use_image_feature_) {
        const Var global = Var::constant(features.global_feature);
        if (use_region_augment_ && !features.roi_features.empty()) {
            rows.push_back(augmenter_.forward_tokens(
                global, Var::constant(features.roi_features),
                Var::constant(features.label_embeddings)));
        } else {
            rows.push_back(augmenter_.forward(global));
        }
    }

    if (!features.extra_tokens.empty()) {
        rows.push_back(Var::constant(features.extra_tokens));
    }
    return ag::concat(rows, 0);
}

}  // namespace aero::core
