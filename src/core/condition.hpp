#pragma once
// The feature-augmented condition network (Sec. IV-C-2).
//
// Per sample we cache the frozen-encoder outputs (`ConditionFeatures`);
// the trainable `ConditionEncoder` (BLIP fusion + region augmenter)
// turns them into the condition token matrix C = [C_xg ; C_g ; f̂_X]
// (Eq. 5) -- optionally extended with variant-specific rows used by the
// baselines (ARLDM history, Make-a-Scene layout).

#include "core/substrate.hpp"
#include "embed/fusion.hpp"

namespace aero::core {

using autograd::Var;
using tensor::Tensor;

/// Frozen-encoder features for one (sample, caption, target) triple.
struct ConditionFeatures {
    Tensor image_tokens;      ///< [Ti, d] CLIP image-tower tokens of X_i
    Tensor text_tokens;       ///< [Tt, d] CLIP text-tower tokens of G_i
    Tensor clip_text;         ///< [1, d] pooled CLIP embedding of G'_i
    Tensor clip_image;        ///< [1, d] pooled CLIP embedding of X_i
    Tensor global_feature;    ///< [1, d] f_X
    Tensor roi_features;      ///< [R, d] detector ROI features (may be empty)
    Tensor label_embeddings;  ///< [R, d] ROI label-text embeddings
    Tensor extra_tokens;      ///< [E, d] variant-specific rows (may be empty)
};

/// One (sample, caption, target) triple of a batched call; the call
/// reads through the pointers.
struct ConditionInput {
    const scene::AerialSample* sample = nullptr;
    const std::string* caption = nullptr;         ///< G_i
    const std::string* target_caption = nullptr;  ///< G'_i
};

/// Computes the cached features of every input, in input order.
/// `target_caption` is G'_i (equal to the source caption during
/// training); detection runs only when `use_object_detection`. Images
/// are resized to the substrate's image size when either extent
/// differs, and every feature (ROIs included) derives from that
/// resized image. The inputs are encoded in passes of a few samples
/// that share their CLIP image- and text-tower forwards (DESIGN.md
/// §18); each result is bit-identical to encoding its input alone.
std::vector<ConditionFeatures> compute_condition_features(
    const Substrate& substrate, const std::vector<ConditionInput>& inputs,
    bool use_object_detection, int max_rois);

/// The batch form for one input.
ConditionFeatures compute_condition_features(const Substrate& substrate,
                                             const scene::AerialSample& sample,
                                             const std::string& caption,
                                             const std::string& target_caption,
                                             bool use_object_detection,
                                             int max_rois);

/// Trainable condition head: assembles C from cached features.
class ConditionEncoder : public nn::Module {
public:
    /// `use_image_feature` gates the f̂_X row entirely (text-only
    /// baselines like plain Stable Diffusion set it false);
    /// `use_region_augment` upgrades that row from a plain projection of
    /// f_X to the ROI-augmented f̂_X of Eq. 2-3.
    ConditionEncoder(const embed::EmbedConfig& config, bool use_blip_fusion,
                     bool use_image_feature, bool use_region_augment,
                     util::Rng& rng);

    /// Condition token matrix [K, d] as a live graph node.
    Var encode(const ConditionFeatures& features) const;

    bool use_blip_fusion() const { return use_blip_fusion_; }
    bool use_image_feature() const { return use_image_feature_; }
    bool use_region_augment() const { return use_region_augment_; }

private:
    bool use_blip_fusion_;
    bool use_image_feature_;
    bool use_region_augment_;
    embed::BlipFusion blip_;
    embed::RegionFeatureAugmenter augmenter_;
};

}  // namespace aero::core
