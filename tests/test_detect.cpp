#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "detect/detector.hpp"
#include "detect/evaluation.hpp"
#include "scene/dataset.hpp"

namespace {

using namespace aero::detect;
using aero::scene::AerialDataset;
using aero::scene::BoundingBox;
using aero::scene::DatasetConfig;
using aero::scene::ObjectClass;
using aero::tensor::Tensor;

DetectorConfig small_config() {
    DetectorConfig config;
    config.image_size = 32;
    config.grid = 8;
    config.base_channels = 8;
    return config;
}

TEST(Nms, SuppressesOverlaps) {
    std::vector<BoundingBox> boxes;
    boxes.push_back({10, 10, 10, 10, ObjectClass::kCar, 0.9f});
    boxes.push_back({11, 11, 10, 10, ObjectClass::kCar, 0.8f});  // overlaps #0
    boxes.push_back({40, 40, 10, 10, ObjectClass::kCar, 0.7f});
    const auto kept = nms(boxes, 0.45f);
    ASSERT_EQ(kept.size(), 2u);
    EXPECT_FLOAT_EQ(kept[0].score, 0.9f);
    EXPECT_FLOAT_EQ(kept[1].score, 0.7f);
}

TEST(Nms, KeepsAllDisjoint) {
    std::vector<BoundingBox> boxes;
    for (int i = 0; i < 4; ++i) {
        boxes.push_back({static_cast<float>(i * 20), 0, 8, 8,
                         ObjectClass::kCar, 0.5f});
    }
    EXPECT_EQ(nms(boxes, 0.3f).size(), 4u);
}

TEST(BuildTargets, AssignsCellsAndClasses) {
    const DetectorConfig config = small_config();
    DetectorTrainConfig weights;
    std::vector<BoundingBox> boxes;
    // Centre (6,6) -> cell (1,1) at cell size 4.
    boxes.push_back({4, 4, 4, 4, ObjectClass::kTruck, 1.0f});
    const CellTargets targets = build_targets(boxes, config, weights);
    const int s = config.grid;
    // Objectness target is 1 at cell (1,1).
    EXPECT_FLOAT_EQ(targets.target[(0 * s + 1) * s + 1], 1.0f);
    EXPECT_FLOAT_EQ(targets.target[(0 * s + 0) * s + 0], 0.0f);
    // Objectness weight everywhere.
    EXPECT_FLOAT_EQ(targets.weight[(0 * s + 5) * s + 3],
                    weights.objectness_weight);
    // Box weight only at the positive cell.
    EXPECT_FLOAT_EQ(targets.weight[(1 * s + 1) * s + 1], weights.box_weight);
    EXPECT_FLOAT_EQ(targets.weight[(1 * s + 0) * s + 0], 0.0f);
    // Class id recorded.
    EXPECT_EQ(targets.class_ids[1 * s + 1],
              static_cast<int>(ObjectClass::kTruck));
    // One-hot class target.
    const int truck = 5 + static_cast<int>(ObjectClass::kTruck);
    EXPECT_FLOAT_EQ(targets.target[(truck * s + 1) * s + 1], 1.0f);
}

TEST(BuildTargets, LargestBoxWinsContestedCell) {
    const DetectorConfig config = small_config();
    std::vector<BoundingBox> boxes;
    boxes.push_back({4, 4, 2, 2, ObjectClass::kPedestrian, 1.0f});
    boxes.push_back({3, 3, 4, 4, ObjectClass::kBus, 1.0f});  // same cell, larger
    const CellTargets targets = build_targets(boxes, config, {});
    EXPECT_EQ(targets.class_ids[1 * config.grid + 1],
              static_cast<int>(ObjectClass::kBus));
}

TEST(BuildTargets, BoxGeometryEncoded) {
    const DetectorConfig config = small_config();
    std::vector<BoundingBox> boxes;
    boxes.push_back({8, 12, 8, 4, ObjectClass::kCar, 1.0f});  // centre (12,14)
    const CellTargets t = build_targets(boxes, config, {});
    const int s = config.grid;
    const int gx = 3;  // 12/4
    const int gy = 3;  // 14/4
    EXPECT_NEAR(t.target[(1 * s + gy) * s + gx], 0.0f, 0.02f);   // dx
    EXPECT_NEAR(t.target[(2 * s + gy) * s + gx], 0.5f, 1e-5f);   // dy
    EXPECT_NEAR(t.target[(3 * s + gy) * s + gx], 8.0f / 32.0f, 1e-5f);
    EXPECT_NEAR(t.target[(4 * s + gy) * s + gx], 4.0f / 32.0f, 1e-5f);
}

TEST(GridDetectorTest, ForwardShape) {
    aero::util::Rng rng(1);
    const DetectorConfig config = small_config();
    GridDetector detector(config, rng);
    const auto x = aero::tensor::Tensor::randn({2, 3, 32, 32}, rng);
    const auto y = detector.forward(aero::autograd::Var::constant(x));
    EXPECT_EQ(y.value().dim(0), 2);
    EXPECT_EQ(y.value().dim(1), config.cell_channels());
    EXPECT_EQ(y.value().dim(2), 8);
    EXPECT_EQ(y.value().dim(3), 8);
}

TEST(GridDetectorTest, TrainingReducesLoss) {
    DatasetConfig ds_config;
    ds_config.train_size = 8;
    ds_config.test_size = 2;
    ds_config.image_size = 32;
    const AerialDataset dataset(ds_config);

    aero::util::Rng rng(2);
    GridDetector detector(small_config(), rng);
    DetectorTrainConfig train_config;
    train_config.steps = 40;
    train_config.batch_size = 4;
    const TrainStats stats =
        train_detector(detector, dataset.train(), train_config, rng);
    EXPECT_LT(stats.final_loss, stats.first_loss);
}

TEST(GridDetectorTest, NonSquareImagesTrainAsTheirResizedCopies) {
    // A training image is resized to the detector's square whenever
    // either extent differs, exactly as its resize_bilinear copy would
    // be, and its boxes are scaled per axis: x and w by the width ratio,
    // y and h by the height ratio.
    DatasetConfig ds_config;
    ds_config.train_size = 4;
    ds_config.test_size = 1;
    ds_config.image_size = 32;
    const AerialDataset dataset(ds_config);
    DetectorTrainConfig train_config;
    train_config.steps = 3;
    train_config.batch_size = 2;
    for (const auto& [width, height] : {std::pair{32, 48}, {48, 32}}) {
        SCOPED_TRACE(std::to_string(width) + "x" + std::to_string(height));
        // Stretch each scene to width x height, then build the copies
        // the trainer must match: resized back to 32x32 with boxes
        // scaled by the trainer's per-axis ratios.
        const float sx = 32.0f / static_cast<float>(width);
        const float sy = 32.0f / static_cast<float>(height);
        std::vector<aero::scene::AerialSample> stretched;
        std::vector<aero::scene::AerialSample> resized;
        for (const aero::scene::AerialSample& sample : dataset.train()) {
            aero::scene::AerialSample wide = sample;
            wide.image = aero::image::resize_bilinear(sample.image, width,
                                                      height);
            for (BoundingBox& b : wide.gt_boxes) {
                b.x /= sx;
                b.y /= sy;
                b.w /= sx;
                b.h /= sy;
            }
            aero::scene::AerialSample square = wide;
            square.image = aero::image::resize_bilinear(wide.image, 32, 32);
            for (BoundingBox& b : square.gt_boxes) {
                b.x *= sx;
                b.y *= sy;
                b.w *= sx;
                b.h *= sy;
            }
            stretched.push_back(std::move(wide));
            resized.push_back(std::move(square));
        }
        aero::util::Rng rng_a(5);
        aero::util::Rng rng_b(5);
        GridDetector a(small_config(), rng_a);
        GridDetector b(small_config(), rng_b);
        train_detector(a, stretched, train_config, rng_a);
        train_detector(b, resized, train_config, rng_b);
        const auto pa = a.parameters();
        const auto pb = b.parameters();
        ASSERT_EQ(pa.size(), pb.size());
        for (std::size_t i = 0; i < pa.size(); ++i) {
            const Tensor& x = pa[i].value();
            const Tensor& y = pb[i].value();
            ASSERT_TRUE(x.same_shape(y));
            EXPECT_EQ(std::memcmp(x.data(), y.data(),
                                  sizeof(float) *
                                      static_cast<std::size_t>(x.size())),
                      0)
                << "parameter " << i;
        }
    }
}

TEST(GridDetectorTest, DetectReturnsBoxesInsideImage) {
    DatasetConfig ds_config;
    ds_config.train_size = 6;
    ds_config.test_size = 2;
    ds_config.image_size = 32;
    const AerialDataset dataset(ds_config);

    aero::util::Rng rng(3);
    GridDetector detector(small_config(), rng);
    DetectorTrainConfig train_config;
    train_config.steps = 60;
    train_config.batch_size = 4;
    train_detector(detector, dataset.train(), train_config, rng);

    const auto boxes = detector.detect(dataset.test()[0].image, 0.3f);
    for (const BoundingBox& box : boxes) {
        EXPECT_GE(box.x, -16.0f);
        EXPECT_LE(box.x + box.w, 48.0f);
        EXPECT_GT(box.score, 0.0f);
        EXPECT_LE(box.score, 1.0f);
    }
}

TEST(ExtractRois, SizesAndCount) {
    aero::image::Image img(32, 32, {0.5f, 0.5f, 0.5f});
    aero::image::fill_rect(img, 10, 10, 6, 4, {1.0f, 0.0f, 0.0f});
    std::vector<BoundingBox> boxes;
    boxes.push_back({10, 10, 6, 4, ObjectClass::kCar, 0.9f});
    boxes.push_back({0, 0, 3, 3, ObjectClass::kPedestrian, 0.8f});
    const Tensor rois = extract_rois(img, boxes, 8);
    ASSERT_EQ(rois.shape(), (std::vector<int>{2, 3, 8, 8}));
    // First ROI is centred on the red rectangle: red 1.0 maps to +1 in
    // the encoder's [-1, 1] input, the grey background to 0.
    EXPECT_GT(rois.at({0, 0, 4, 4}), 0.4f);
    EXPECT_LT(rois.at({0, 1, 4, 4}), -0.4f);
    EXPECT_TRUE(extract_rois(img, {}, 8).empty());
}

/// extract_rois as it was before it wrote tensors: image::crop, then
/// image::resize_bilinear, then to_tensor_chw per ROI, concatenated.
Tensor reference_extract_rois(const aero::image::Image& img,
                              const std::vector<BoundingBox>& boxes,
                              int roi_size) {
    std::vector<Tensor> rois;
    for (const BoundingBox& box : boxes) {
        const int pad_x = std::max(1, static_cast<int>(box.w * 0.25f));
        const int pad_y = std::max(1, static_cast<int>(box.h * 0.25f));
        const aero::image::Image patch = aero::image::crop(
            img, static_cast<int>(box.x) - pad_x,
            static_cast<int>(box.y) - pad_y,
            std::max(2, static_cast<int>(box.w) + 2 * pad_x),
            std::max(2, static_cast<int>(box.h) + 2 * pad_y));
        rois.push_back(aero::image::resize_bilinear(patch, roi_size, roi_size)
                           .to_tensor_chw()
                           .reshaped({1, 3, roi_size, roi_size}));
    }
    return aero::tensor::concat(rois, 0);
}

TEST(ExtractRois, TensorFormMatchesCropResizeChainBitForBit) {
    aero::util::Rng rng(11);
    std::vector<BoundingBox> boxes = {
        {10, 10, 6, 4, ObjectClass::kCar, 0.9f},            // inside
        {0, 0, 5, 7, ObjectClass::kVan, 0.9f},              // on the corner
        {27.5f, 3.25f, 4.5f, 6.0f, ObjectClass::kBus, 0.9f},  // on the edge
        {-3.7f, 25.2f, 9.0f, 11.0f, ObjectClass::kTruck, 0.9f},  // across
        {30.0f, -2.0f, 8.0f, 5.5f, ObjectClass::kMotor, 0.9f},   // across
        {12.0f, 9.0f, 1.0f, 1.0f, ObjectClass::kPedestrian, 0.9f},  // 1 px
        {31.0f, 31.0f, 1.0f, 1.0f, ObjectClass::kPeople, 0.9f},  // 1 px corner
        {-10.0f, -6.0f, 60.0f, 47.0f, ObjectClass::kBicycle, 0.9f},  // larger
        {4.4f, 2.6f, 23.3f, 2.2f, ObjectClass::kTricycle, 0.9f},  // thin
    };
    // A noisy square and a non-square image, so every interpolation
    // weight and both axes show.
    for (const auto& [width, height] : {std::pair{32, 32}, std::pair{40, 28}}) {
        aero::image::Image img(width, height, {0.4f, 0.5f, 0.6f});
        aero::image::add_gaussian_noise(img, rng, 0.3f);
        for (const int roi_size : {8, 32}) {
            const Tensor got = extract_rois(img, boxes, roi_size);
            const Tensor want = reference_extract_rois(img, boxes, roi_size);
            ASSERT_EQ(got.shape(), want.shape());
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  sizeof(float) *
                                      static_cast<std::size_t>(got.size())),
                      0)
                << width << "x" << height << " image, roi_size " << roi_size;
        }
    }
}

// Property sweep: after NMS at threshold tau, no two kept boxes overlap
// more than tau, scores are sorted descending, and the kept set is a
// subset of the input.
class NmsProperties : public ::testing::TestWithParam<float> {};

TEST_P(NmsProperties, InvariantsOnRandomBoxes) {
    const float tau = GetParam();
    aero::util::Rng rng(500 + static_cast<std::uint64_t>(tau * 100));
    std::vector<BoundingBox> boxes;
    for (int i = 0; i < 60; ++i) {
        BoundingBox b;
        b.x = static_cast<float>(rng.uniform(0.0, 28.0));
        b.y = static_cast<float>(rng.uniform(0.0, 28.0));
        b.w = static_cast<float>(rng.uniform(1.0, 8.0));
        b.h = static_cast<float>(rng.uniform(1.0, 8.0));
        b.score = static_cast<float>(rng.uniform(0.0, 1.0));
        b.cls = static_cast<ObjectClass>(rng.uniform_int(0, 9));
        boxes.push_back(b);
    }
    const auto kept = nms(boxes, tau);
    ASSERT_LE(kept.size(), boxes.size());
    for (std::size_t i = 1; i < kept.size(); ++i) {
        EXPECT_GE(kept[i - 1].score, kept[i].score);
    }
    for (std::size_t i = 0; i < kept.size(); ++i) {
        for (std::size_t j = i + 1; j < kept.size(); ++j) {
            EXPECT_LE(aero::scene::iou(kept[i], kept[j]), tau + 1e-5f);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, NmsProperties,
                         ::testing::Values(0.1f, 0.3f, 0.5f, 0.7f));

TEST(AveragePrecision, PerfectDetectorScoresOne) {
    // Detections exactly equal to ground truth, descending scores.
    std::vector<std::vector<BoundingBox>> gt(2);
    gt[0].push_back({2, 2, 6, 6, ObjectClass::kCar, 1.0f});
    gt[1].push_back({10, 10, 4, 4, ObjectClass::kCar, 1.0f});
    std::vector<aero::detect::ScoredDetection> detections;
    detections.push_back({0, {2, 2, 6, 6, ObjectClass::kCar, 0.9f}});
    detections.push_back({1, {10, 10, 4, 4, ObjectClass::kCar, 0.8f}});
    const auto ap =
        aero::detect::average_precision(detections, gt, ObjectClass::kCar);
    EXPECT_EQ(ap.gt_count, 2);
    EXPECT_NEAR(ap.ap, 1.0f, 1e-5f);
}

TEST(AveragePrecision, MissedDetectionsLowerAp) {
    std::vector<std::vector<BoundingBox>> gt(1);
    gt[0].push_back({2, 2, 6, 6, ObjectClass::kCar, 1.0f});
    gt[0].push_back({20, 20, 6, 6, ObjectClass::kCar, 1.0f});
    std::vector<aero::detect::ScoredDetection> detections;
    detections.push_back({0, {2, 2, 6, 6, ObjectClass::kCar, 0.9f}});
    const auto ap =
        aero::detect::average_precision(detections, gt, ObjectClass::kCar);
    EXPECT_LT(ap.ap, 0.7f);
    EXPECT_GT(ap.ap, 0.3f);  // half the recall levels covered
}

TEST(AveragePrecision, FalsePositivesLowerPrecision) {
    std::vector<std::vector<BoundingBox>> gt(1);
    gt[0].push_back({2, 2, 6, 6, ObjectClass::kCar, 1.0f});
    std::vector<aero::detect::ScoredDetection> detections;
    // Higher-scored false positive first.
    detections.push_back({0, {40, 40, 4, 4, ObjectClass::kCar, 0.95f}});
    detections.push_back({0, {2, 2, 6, 6, ObjectClass::kCar, 0.9f}});
    const auto ap =
        aero::detect::average_precision(detections, gt, ObjectClass::kCar);
    EXPECT_LT(ap.ap, 1.0f);
    EXPECT_GT(ap.ap, 0.0f);
}

TEST(AveragePrecision, DuplicateDetectionsCountOnce) {
    std::vector<std::vector<BoundingBox>> gt(1);
    gt[0].push_back({2, 2, 6, 6, ObjectClass::kCar, 1.0f});
    std::vector<aero::detect::ScoredDetection> detections;
    detections.push_back({0, {2, 2, 6, 6, ObjectClass::kCar, 0.9f}});
    detections.push_back({0, {2, 2, 6, 6, ObjectClass::kCar, 0.8f}});
    const auto ap =
        aero::detect::average_precision(detections, gt, ObjectClass::kCar);
    // The duplicate is a false positive at the lower score; AP stays 1.0
    // because max precision at each recall level uses the first match.
    EXPECT_NEAR(ap.ap, 1.0f, 1e-5f);
}

TEST(AveragePrecision, EmptyGroundTruthGivesZero) {
    std::vector<std::vector<BoundingBox>> gt(1);
    const auto ap = aero::detect::average_precision({}, gt,
                                                    ObjectClass::kBus);
    EXPECT_EQ(ap.gt_count, 0);
    EXPECT_FLOAT_EQ(ap.ap, 0.0f);
}

TEST(EvaluateMap, TrainedBeatsUntrained) {
    aero::scene::DatasetConfig ds_config;
    ds_config.train_size = 10;
    ds_config.test_size = 4;
    ds_config.image_size = 32;
    const AerialDataset dataset(ds_config);

    aero::util::Rng rng(77);
    GridDetector untrained(small_config(), rng);
    const auto before =
        aero::detect::evaluate_map(untrained, dataset.test());

    GridDetector trained(small_config(), rng);
    DetectorTrainConfig config;
    config.steps = 120;
    config.batch_size = 6;
    train_detector(trained, dataset.train(), config, rng);
    const auto after = aero::detect::evaluate_map(trained, dataset.test());
    EXPECT_GE(after.mean_ap, before.mean_ap);
    EXPECT_EQ(after.per_class.size(),
              static_cast<std::size_t>(aero::scene::kNumObjectClasses));
}

TEST(EvaluateDetector, PerfectOracleScoresHigh) {
    // evaluate_detector on an untrained detector must not crash and
    // produce values in [0,1].
    DatasetConfig ds_config;
    ds_config.train_size = 2;
    ds_config.test_size = 2;
    ds_config.image_size = 32;
    const AerialDataset dataset(ds_config);
    aero::util::Rng rng(4);
    GridDetector detector(small_config(), rng);
    const DetectionQuality q = evaluate_detector(detector, dataset.test());
    EXPECT_GE(q.recall, 0.0f);
    EXPECT_LE(q.recall, 1.0f);
    EXPECT_GE(q.precision, 0.0f);
    EXPECT_LE(q.precision, 1.0f);
}

}  // namespace
