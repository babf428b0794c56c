#include "core/condition.hpp"

#include <algorithm>

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

}  // namespace

ConditionFeatures compute_condition_features(const Substrate& substrate,
                                             const scene::AerialSample& sample,
                                             const std::string& caption,
                                             const std::string& target_caption,
                                             bool use_object_detection,
                                             int max_rois) {
    const ag::NoGradGuard no_grad;
    ConditionFeatures features;
    const embed::ClipModel& clip = *substrate.clip;
    const text::Vocabulary& vocab = text::Vocabulary::aerial();
    const int size = substrate.budget.image_size;

    image::Image sized = sample.image;
    if (sized.width() != size) {
        sized = image::resize_bilinear(sized, size, size);
    }
    const Var image_var = Var::constant(
        sized.to_tensor_chw().reshaped({1, 3, size, size}));

    features.image_tokens =
        clip.image_encoder().forward_tokens(image_var).value();
    features.text_tokens =
        clip.text_encoder().forward_tokens(vocab.encode(caption)).value();
    features.clip_text = clip.embed_text_eval(target_caption);
    features.clip_image = clip.embed_image_eval(sample.image);
    features.global_feature =
        clip.image_encoder().forward(image_var).value();

    if (use_object_detection && substrate.detector) {
        const obs::Span span("roi_fusion", &roi_fusion_histogram());
        std::vector<scene::BoundingBox> boxes =
            substrate.detector->detect(sample.image);
        std::sort(boxes.begin(), boxes.end(),
                  [](const scene::BoundingBox& a, const scene::BoundingBox& b) {
                      return a.score > b.score;
                  });
        if (static_cast<int>(boxes.size()) > max_rois) {
            boxes.resize(static_cast<std::size_t>(max_rois));
        }
        if (!boxes.empty()) {
            const auto rois =
                detect::extract_rois(sample.image, boxes, size);
            std::vector<Tensor> roi_rows;
            std::vector<Tensor> label_rows;
            roi_rows.reserve(rois.size());
            for (std::size_t i = 0; i < rois.size(); ++i) {
                const Var roi_var = Var::constant(
                    rois[i].to_tensor_chw().reshaped({1, 3, size, size}));
                roi_rows.push_back(
                    clip.image_encoder().forward(roi_var).value());
                label_rows.push_back(
                    clip.text_encoder()
                        .forward(vocab.encode(scene::class_name(boxes[i].cls)))
                        .value());
            }
            features.roi_features = tensor::concat(roi_rows, 0);
            features.label_embeddings = tensor::concat(label_rows, 0);
        }
    }
    return features;
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
