#pragma once
// Single-shot grid object detector: the library's stand-in for the YOLO
// model the paper trains on VisDrone (Sec. IV-B). A small conv backbone
// predicts, for every cell of an SxS grid, an objectness logit, a box
// (cell-relative centre offset + image-relative size) and class logits.
// Detections feed the region-level feature augmentation.

#include "image/image.hpp"
#include "nn/layers.hpp"
#include "nn/optimizer.hpp"
#include "scene/dataset.hpp"

namespace aero::detect {

using scene::BoundingBox;

struct DetectorConfig {
    int image_size = 32;
    int grid = 8;            ///< SxS prediction grid
    int base_channels = 16;
    int num_classes = scene::kNumObjectClasses;

    /// Channels per cell: [objectness, dx, dy, w, h, class logits...].
    int cell_channels() const { return 5 + num_classes; }
};

class GridDetector : public nn::Module {
public:
    GridDetector(const DetectorConfig& config, util::Rng& rng);

    /// Raw prediction grid for a batch: [N, 5+C, S, S]. Channel 0 is the
    /// objectness logit, 1-4 the box logits (sigmoid-bounded at decode),
    /// the rest per-class logits.
    nn::Var forward(const nn::Var& images) const;

    /// Decoded, NMS-filtered detections for one image.
    std::vector<BoundingBox> detect(const image::Image& img,
                                    float objectness_threshold = 0.45f,
                                    float nms_iou = 0.45f) const;

    const DetectorConfig& config() const { return config_; }

private:
    DetectorConfig config_;
    nn::Conv2d conv1_;
    nn::GroupNorm norm1_;
    nn::Conv2d conv2_;
    nn::GroupNorm norm2_;
    nn::Conv2d conv3_;
    nn::Conv2d head_;
};

struct DetectorTrainConfig {
    int steps = 200;
    int batch_size = 8;
    float lr = 3e-3f;
    float objectness_weight = 1.0f;
    float box_weight = 2.0f;
    float class_weight = 0.5f;
};

/// Per-cell training target built from ground-truth boxes (largest box
/// wins a contested cell). Targets/weights share the prediction layout
/// [5+C, S, S] so the loss is a single weighted MSE after sigmoid.
struct CellTargets {
    tensor::Tensor target;        ///< [5+C, S, S] desired post-sigmoid values
    tensor::Tensor weight;        ///< [5+C, S, S] per-entry loss weight
    std::vector<int> class_ids;   ///< per-cell class (-1 where empty), row-major
};

CellTargets build_targets(const std::vector<BoundingBox>& boxes,
                          const DetectorConfig& config,
                          const DetectorTrainConfig& loss_weights);

struct TrainStats {
    float first_loss = 0.0f;
    float final_loss = 0.0f;
};

/// Trains the detector on rendered samples with their GT boxes.
TrainStats train_detector(GridDetector& detector,
                          const std::vector<scene::AerialSample>& samples,
                          const DetectorTrainConfig& config, util::Rng& rng);

/// Class-agnostic greedy NMS, highest score first.
std::vector<BoundingBox> nms(std::vector<BoundingBox> boxes, float iou_threshold);

/// Detection quality on a sample set: recall and precision at IoU 0.3.
struct DetectionQuality {
    float recall = 0.0f;
    float precision = 0.0f;
};
DetectionQuality evaluate_detector(
    const GridDetector& detector,
    const std::vector<scene::AerialSample>& samples,
    float objectness_threshold = 0.45f);

/// Crops each detection region (slightly padded, edge pixels repeated
/// outside the image) and resizes it bilinearly to `roi_size` -- the ROI
/// inputs of the feature augmenter, written directly in the image
/// encoder's input form: [R, 3, roi_size, roi_size] in [-1, 1], ROI r
/// at index r. Each ROI is bit-identical to image::crop, then
/// image::resize_bilinear, then Image::to_tensor_chw. Empty for no boxes.
tensor::Tensor extract_rois(const image::Image& img,
                            const std::vector<BoundingBox>& boxes,
                            int roi_size);

}  // namespace aero::detect
