#include "detect/detector.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace aero::detect {

namespace ag = aero::autograd;
using nn::Var;
using tensor::Tensor;

GridDetector::GridDetector(const DetectorConfig& config, util::Rng& rng)
    : config_(config),
      conv1_(3, config.base_channels, 3, 2, 1, rng),
      norm1_(config.base_channels, 4),
      conv2_(config.base_channels, config.base_channels * 2, 3, 2, 1, rng),
      norm2_(config.base_channels * 2, 4),
      conv3_(config.base_channels * 2, config.base_channels * 2, 3, 1, 1, rng),
      head_(config.base_channels * 2, config.cell_channels(), 1, 1, 0, rng) {
    // Two stride-2 stages: image_size must be 4x the grid.
    assert(config.image_size == config.grid * 4);
    register_child(conv1_);
    register_child(norm1_);
    register_child(conv2_);
    register_child(norm2_);
    register_child(conv3_);
    register_child(head_);
}

Var GridDetector::forward(const Var& images) const {
    Var h = ag::silu(norm1_.forward(conv1_.forward(images)));
    h = ag::silu(norm2_.forward(conv2_.forward(h)));
    h = ag::silu(conv3_.forward(h));
    return head_.forward(h);
}

namespace {

float sigmoidf(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

std::vector<BoundingBox> GridDetector::detect(const image::Image& img,
                                              float objectness_threshold,
                                              float nms_iou) const {
    const ag::NoGradGuard no_grad;
    image::Image sized = img;
    if (img.width() != config_.image_size ||
        img.height() != config_.image_size) {
        sized = image::resize_bilinear(img, config_.image_size,
                                       config_.image_size);
    }
    Tensor chw = sized.to_tensor_chw().reshaped(
        {1, 3, config_.image_size, config_.image_size});
    const Var pred = forward(Var::constant(std::move(chw)));
    const Tensor& grid = pred.value();  // [1, CC, S, S]

    const int s = config_.grid;
    const float cell_px =
        static_cast<float>(config_.image_size) / static_cast<float>(s);
    const float scale_x =
        static_cast<float>(img.width()) / static_cast<float>(config_.image_size);
    const float scale_y = static_cast<float>(img.height()) /
                          static_cast<float>(config_.image_size);

    auto at = [&](int channel, int gy, int gx) {
        return grid[(channel * s + gy) * s + gx];
    };

    std::vector<BoundingBox> boxes;
    for (int gy = 0; gy < s; ++gy) {
        for (int gx = 0; gx < s; ++gx) {
            const float obj = sigmoidf(at(0, gy, gx));
            if (obj < objectness_threshold) continue;
            const float dx = sigmoidf(at(1, gy, gx));
            const float dy = sigmoidf(at(2, gy, gx));
            const float bw =
                sigmoidf(at(3, gy, gx)) * static_cast<float>(config_.image_size);
            const float bh =
                sigmoidf(at(4, gy, gx)) * static_cast<float>(config_.image_size);
            int best_class = 0;
            float best_logit = at(5, gy, gx);
            for (int c = 1; c < config_.num_classes; ++c) {
                const float logit = at(5 + c, gy, gx);
                if (logit > best_logit) {
                    best_logit = logit;
                    best_class = c;
                }
            }
            BoundingBox box;
            const float cx = (static_cast<float>(gx) + dx) * cell_px;
            const float cy = (static_cast<float>(gy) + dy) * cell_px;
            box.x = (cx - bw * 0.5f) * scale_x;
            box.y = (cy - bh * 0.5f) * scale_y;
            box.w = std::max(bw * scale_x, 1.0f);
            box.h = std::max(bh * scale_y, 1.0f);
            box.cls = static_cast<scene::ObjectClass>(best_class);
            box.score = obj;
            boxes.push_back(box);
        }
    }
    return nms(std::move(boxes), nms_iou);
}

CellTargets build_targets(const std::vector<BoundingBox>& boxes,
                          const DetectorConfig& config,
                          const DetectorTrainConfig& loss_weights) {
    const int s = config.grid;
    const int cc = config.cell_channels();
    const float cell_px =
        static_cast<float>(config.image_size) / static_cast<float>(s);

    CellTargets targets;
    targets.target = Tensor({cc, s, s});
    targets.weight = Tensor({cc, s, s});
    targets.class_ids.assign(static_cast<std::size_t>(s * s), -1);

    auto set = [&](Tensor& t, int channel, int gy, int gx, float v) {
        t[(channel * s + gy) * s + gx] = v;
    };

    // Objectness is supervised everywhere (mostly negatives).
    for (int gy = 0; gy < s; ++gy) {
        for (int gx = 0; gx < s; ++gx) {
            set(targets.weight, 0, gy, gx, loss_weights.objectness_weight);
        }
    }

    std::vector<float> claimed(static_cast<std::size_t>(s * s), 0.0f);
    for (const BoundingBox& box : boxes) {
        const int gx = std::clamp(static_cast<int>(box.cx() / cell_px), 0, s - 1);
        const int gy = std::clamp(static_cast<int>(box.cy() / cell_px), 0, s - 1);
        const std::size_t cell = static_cast<std::size_t>(gy * s + gx);
        if (box.area() <= claimed[cell]) continue;  // largest box wins
        claimed[cell] = box.area();
        targets.class_ids[cell] = static_cast<int>(box.cls);

        set(targets.target, 0, gy, gx, 1.0f);
        const float dx = box.cx() / cell_px - static_cast<float>(gx);
        const float dy = box.cy() / cell_px - static_cast<float>(gy);
        set(targets.target, 1, gy, gx, std::clamp(dx, 0.01f, 0.99f));
        set(targets.target, 2, gy, gx, std::clamp(dy, 0.01f, 0.99f));
        set(targets.target, 3, gy, gx,
            std::clamp(box.w / static_cast<float>(config.image_size), 0.01f,
                       0.99f));
        set(targets.target, 4, gy, gx,
            std::clamp(box.h / static_cast<float>(config.image_size), 0.01f,
                       0.99f));
        for (int k = 1; k <= 4; ++k) {
            set(targets.weight, k, gy, gx, loss_weights.box_weight);
        }
        for (int c = 0; c < config.num_classes; ++c) {
            set(targets.target, 5 + c, gy, gx,
                c == static_cast<int>(box.cls) ? 1.0f : 0.0f);
            set(targets.weight, 5 + c, gy, gx, loss_weights.class_weight);
        }
    }
    return targets;
}

TrainStats train_detector(GridDetector& detector,
                          const std::vector<scene::AerialSample>& samples,
                          const DetectorTrainConfig& config, util::Rng& rng) {
    assert(!samples.empty());
    const DetectorConfig& dc = detector.config();

    // Pre-build input tensors and targets once.
    std::vector<Tensor> inputs;
    std::vector<CellTargets> targets;
    inputs.reserve(samples.size());
    targets.reserve(samples.size());
    for (const scene::AerialSample& sample : samples) {
        image::Image sized = sample.image;
        std::vector<BoundingBox> boxes = sample.gt_boxes;
        if (sized.width() != dc.image_size ||
            sized.height() != dc.image_size) {
            const float sx = static_cast<float>(dc.image_size) /
                             static_cast<float>(sized.width());
            const float sy = static_cast<float>(dc.image_size) /
                             static_cast<float>(sized.height());
            sized = image::resize_bilinear(sized, dc.image_size, dc.image_size);
            for (BoundingBox& b : boxes) {
                b.x *= sx;
                b.y *= sy;
                b.w *= sx;
                b.h *= sy;
            }
        }
        inputs.push_back(sized.to_tensor_chw().reshaped(
            {1, 3, dc.image_size, dc.image_size}));
        targets.push_back(build_targets(boxes, dc, config));
    }

    nn::Adam opt(detector.parameters(),
                 {.lr = config.lr, .weight_decay = 1e-5f});
    TrainStats stats;
    const int cc = dc.cell_channels();
    const int s = dc.grid;

    for (int step = 0; step < config.steps; ++step) {
        // Assemble a batch.
        std::vector<Var> batch_inputs;
        std::vector<Tensor> batch_targets;
        std::vector<Tensor> batch_weights;
        for (int b = 0; b < config.batch_size; ++b) {
            const int i = rng.uniform_int(0, static_cast<int>(samples.size()) - 1);
            batch_inputs.push_back(Var::constant(inputs[static_cast<std::size_t>(i)]));
            batch_targets.push_back(targets[static_cast<std::size_t>(i)].target);
            batch_weights.push_back(targets[static_cast<std::size_t>(i)].weight);
        }
        const Var images = ag::concat(batch_inputs, 0);
        Tensor target_batch = tensor::concat(batch_targets, 0)
                                  .reshaped({config.batch_size, cc, s, s});
        Tensor weight_batch = tensor::concat(batch_weights, 0)
                                  .reshaped({config.batch_size, cc, s, s});

        opt.zero_grad();
        const Var pred = ag::sigmoid(detector.forward(images));
        const Var weights = Var::constant(std::move(weight_batch));
        const Var loss =
            ag::mse_loss(ag::mul(pred, weights),
                         ag::mul(Var::constant(std::move(target_batch)),
                                 weights));
        loss.backward();
        opt.clip_grad_norm(5.0f);
        opt.step();
        if (step == 0) stats.first_loss = loss.value()[0];
        stats.final_loss = loss.value()[0];
    }
    return stats;
}

std::vector<BoundingBox> nms(std::vector<BoundingBox> boxes,
                             float iou_threshold) {
    std::sort(boxes.begin(), boxes.end(),
              [](const BoundingBox& a, const BoundingBox& b) {
                  return a.score > b.score;
              });
    std::vector<BoundingBox> kept;
    for (const BoundingBox& candidate : boxes) {
        bool suppressed = false;
        for (const BoundingBox& keeper : kept) {
            if (iou(candidate, keeper) > iou_threshold) {
                suppressed = true;
                break;
            }
        }
        if (!suppressed) kept.push_back(candidate);
    }
    return kept;
}

DetectionQuality evaluate_detector(
    const GridDetector& detector,
    const std::vector<scene::AerialSample>& samples,
    float objectness_threshold) {
    int true_positives = 0;
    int total_gt = 0;
    int total_pred = 0;
    for (const scene::AerialSample& sample : samples) {
        const auto detections =
            detector.detect(sample.image, objectness_threshold);
        total_pred += static_cast<int>(detections.size());
        total_gt += static_cast<int>(sample.gt_boxes.size());
        std::vector<bool> used(detections.size(), false);
        for (const BoundingBox& gt : sample.gt_boxes) {
            for (std::size_t i = 0; i < detections.size(); ++i) {
                if (used[i]) continue;
                if (iou(gt, detections[i]) >= 0.3f) {
                    used[i] = true;
                    ++true_positives;
                    break;
                }
            }
        }
    }
    DetectionQuality quality;
    if (total_gt > 0) {
        quality.recall =
            static_cast<float>(true_positives) / static_cast<float>(total_gt);
    }
    if (total_pred > 0) {
        quality.precision = static_cast<float>(true_positives) /
                            static_cast<float>(total_pred);
    }
    return quality;
}

Tensor extract_rois(const image::Image& img,
                    const std::vector<BoundingBox>& boxes, int roi_size) {
    if (boxes.empty()) return Tensor();
    const int n = roi_size;
    Tensor rois({static_cast<int>(boxes.size()), 3, n, n});
    for (std::size_t r = 0; r < boxes.size(); ++r) {
        const BoundingBox& box = boxes[r];
        // Pad the crop by 25% so context survives the resize.
        const int pad_x = std::max(1, static_cast<int>(box.w * 0.25f));
        const int pad_y = std::max(1, static_cast<int>(box.h * 0.25f));
        image::crop_resize_chw(
            img, static_cast<int>(box.x) - pad_x,
            static_cast<int>(box.y) - pad_y,
            std::max(2, static_cast<int>(box.w) + 2 * pad_x),
            std::max(2, static_cast<int>(box.h) + 2 * pad_y), n, n,
            rois.data() + r * 3 * n * n);
    }
    return rois;
}

}  // namespace aero::detect
