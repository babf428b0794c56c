#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "detect/detector.hpp"
#include "embed/clip.hpp"
#include "embed/encoders.hpp"
#include "embed/fusion.hpp"
#include "scene/dataset.hpp"
#include "text/llm.hpp"

namespace {

using namespace aero::embed;
using aero::autograd::Var;
using aero::tensor::Tensor;
namespace ag = aero::autograd;

EmbedConfig small_config() {
    EmbedConfig config;
    config.dim = 16;
    config.image_size = 32;
    config.heads = 2;
    return config;
}

TEST(ImageEncoderTest, PooledAndTokenShapes) {
    aero::util::Rng rng(1);
    ImageEncoder encoder(small_config(), rng);
    const Var images = Var::constant(Tensor::randn({3, 3, 32, 32}, rng));
    const Var pooled = encoder.forward(images);
    EXPECT_EQ(pooled.value().dim(0), 3);
    EXPECT_EQ(pooled.value().dim(1), 16);

    const Var one = Var::constant(Tensor::randn({1, 3, 32, 32}, rng));
    const Var tokens = encoder.encode(one).tokens;
    EXPECT_EQ(tokens.value().dim(0), 16);  // (32/8)^2
    EXPECT_EQ(tokens.value().dim(1), 16);

    // A batch's encoding: (32/8)^2 token rows per image, and the pooled
    // rows of forward().
    const ImageEncoder::Encoding batch = encoder.encode(images);
    EXPECT_EQ(batch.tokens.value().dim(0), 3 * 16);
    EXPECT_EQ(batch.tokens.value().dim(1), 16);
    ASSERT_EQ(batch.pooled.value().shape(), pooled.value().shape());
    EXPECT_EQ(std::memcmp(batch.pooled.value().data(), pooled.value().data(),
                          sizeof(float) * pooled.value().size()),
              0);
}

TEST(TextEncoderTest, HandlesEmptyAndLongInput) {
    aero::util::Rng rng(2);
    TextEncoder encoder(small_config(), rng);
    const Var empty = encoder.forward({});
    EXPECT_EQ(empty.value().dim(0), 1);
    std::vector<int> long_ids(200, 5);
    const Var truncated = encoder.forward_tokens(long_ids);
    EXPECT_LE(truncated.value().dim(0), small_config().max_tokens);
}

TEST(TextEncoderTest, DifferentTextsDifferentEmbeddings) {
    aero::util::Rng rng(3);
    TextEncoder encoder(small_config(), rng);
    const auto& vocab = aero::text::Vocabulary::aerial();
    const Var a = encoder.forward(vocab.encode("a daytime aerial image"));
    const Var b = encoder.forward(vocab.encode("numerous cars near the highway"));
    float diff = 0.0f;
    for (int i = 0; i < a.value().size(); ++i) {
        diff += std::abs(a.value()[i] - b.value()[i]);
    }
    EXPECT_GT(diff, 1e-3f);
}

TEST(NormalizeRows, UnitNorm) {
    aero::util::Rng rng(4);
    const Var x = Var::constant(Tensor::randn({3, 8}, rng, 0.0f, 3.0f));
    const Var y = normalize_rows(x);
    for (int i = 0; i < 3; ++i) {
        float norm = 0.0f;
        for (int j = 0; j < 8; ++j) {
            norm += y.value()[i * 8 + j] * y.value()[i * 8 + j];
        }
        EXPECT_NEAR(norm, 1.0f, 1e-4f);
    }
}

TEST(NormalizeRows, GradientOrthogonalToOutput) {
    // Because ||y|| == 1, gradients must be orthogonal to y per row.
    aero::util::Rng rng(5);
    Var x = Var::param(Tensor::randn({2, 6}, rng));
    const Var y = normalize_rows(x);
    const Var proj = Var::constant(Tensor::randn({2, 6}, rng));
    ag::sum_all(ag::mul(y, proj)).backward();
    for (int i = 0; i < 2; ++i) {
        float dot = 0.0f;
        for (int j = 0; j < 6; ++j) {
            dot += x.grad()[i * 6 + j] * x.value()[i * 6 + j];
        }
        EXPECT_NEAR(dot, 0.0f, 1e-3f);
    }
}

TEST(MeanRows, Average) {
    const Var x = Var::constant(
        Tensor::from_values({1, 2, 3, 5, 6, 7}).reshaped({2, 3}));
    const Var m = mean_rows(x);
    EXPECT_EQ(m.value().dim(0), 1);
    EXPECT_NEAR(m.value()[0], 3.0f, 1e-5f);
    EXPECT_NEAR(m.value()[2], 5.0f, 1e-5f);
}

TEST(ClipModelTest, EmbeddingsAreNormalised) {
    aero::util::Rng rng(6);
    ClipModel clip(small_config(), rng);
    aero::image::Image img(32, 32, {0.4f, 0.3f, 0.6f});
    const Tensor e = clip.embed_image_eval(img);
    float norm = 0.0f;
    for (int i = 0; i < e.size(); ++i) norm += e[i] * e[i];
    EXPECT_NEAR(norm, 1.0f, 1e-4f);
}

TEST(ClipModelTest, ContrastiveTrainingAlignsPairs) {
    // Two visually distinct images with distinct captions: after a few
    // steps the matched similarity must beat the mismatched one.
    aero::util::Rng rng(7);
    ClipModel clip(small_config(), rng);

    std::vector<aero::image::Image> images;
    images.emplace_back(32, 32, aero::image::Color{0.9f, 0.1f, 0.1f});
    images.emplace_back(32, 32, aero::image::Color{0.1f, 0.1f, 0.9f});
    std::vector<std::string> captions{
        "numerous cars near the busy highway",
        "a tranquil park with trees and a pond"};

    ClipTrainConfig config;
    config.steps = 60;
    config.batch_size = 2;
    config.lr = 3e-3f;
    const ClipTrainStats stats =
        train_clip(clip, images, captions, config, rng);
    EXPECT_LT(stats.final_loss, stats.first_loss);

    const float match = clip_score(clip, images[0], captions[0]);
    const float mismatch = clip_score(clip, images[0], captions[1]);
    EXPECT_GT(match, mismatch);
}

/// Two width x height training images: a colour field with a white block
/// off the centre, so a resize moves real content on both axes.
std::vector<aero::image::Image> block_images(int width, int height) {
    std::vector<aero::image::Image> images;
    for (int i = 0; i < 2; ++i) {
        aero::image::Image img(width, height,
                               {0.8f - 0.6f * static_cast<float>(i), 0.2f,
                                0.2f + 0.6f * static_cast<float>(i)});
        aero::image::fill_rect(img, 3 + 9 * i, 5 + 11 * i, 9, 13,
                               {1.0f, 1.0f, 1.0f});
        images.push_back(std::move(img));
    }
    return images;
}

bool same_parameters(const std::vector<Var>& a, const std::vector<Var>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const Tensor& x = a[i].value();
        const Tensor& y = b[i].value();
        if (!x.same_shape(y) ||
            std::memcmp(x.data(), y.data(),
                        sizeof(float) * static_cast<std::size_t>(x.size())) !=
                0) {
            return false;
        }
    }
    return true;
}

TEST(ClipModelTest, NonSquareImagesTrainAsTheirResizedCopies) {
    // A training image is resized to the model's square whenever either
    // extent differs, exactly as its resize_bilinear copy would be.
    const std::vector<std::string> captions{
        "numerous cars near the busy highway",
        "a tranquil park with trees and a pond"};
    ClipTrainConfig config;
    config.steps = 3;
    config.batch_size = 2;
    for (const auto& [width, height] : {std::pair{32, 48}, {48, 32}}) {
        SCOPED_TRACE(std::to_string(width) + "x" + std::to_string(height));
        const std::vector<aero::image::Image> images =
            block_images(width, height);
        std::vector<aero::image::Image> resized;
        for (const aero::image::Image& img : images) {
            resized.push_back(aero::image::resize_bilinear(img, 32, 32));
        }
        aero::util::Rng rng_a(31);
        aero::util::Rng rng_b(31);
        ClipModel a(small_config(), rng_a);
        ClipModel b(small_config(), rng_b);
        train_clip(a, images, captions, config, rng_a);
        train_clip(b, resized, captions, config, rng_b);
        EXPECT_TRUE(same_parameters(a.parameters(), b.parameters()));
    }
}

TEST(ClipScore, Bounds) {
    aero::util::Rng rng(8);
    ClipModel clip(small_config(), rng);
    aero::image::Image img(32, 32, {0.2f, 0.8f, 0.2f});
    const float score = clip_score(clip, img, "a daytime aerial image");
    EXPECT_GE(score, 0.0f);
    EXPECT_LE(score, 100.0f);
}

TEST(BlipFusionTest, ShapeAndGradients) {
    aero::util::Rng rng(9);
    BlipFusion fusion(small_config(), rng);
    const Var image_tokens = Var::constant(Tensor::randn({16, 16}, rng));
    const Var text_tokens = Var::constant(Tensor::randn({10, 16}, rng));
    const Var fused = fusion.forward(image_tokens, text_tokens);
    EXPECT_EQ(fused.value().dim(0), 1);
    EXPECT_EQ(fused.value().dim(1), 16);
    ag::mean_all(fused).backward();
    for (const Var& p : fusion.parameters()) {
        EXPECT_FALSE(p.grad().empty());
    }
}

TEST(BlipFusionTest, StartsAsTextPassThrough) {
    // By design the attention fades in: at init C_xg is exactly the
    // pooled text tokens (identity head), independent of the image.
    aero::util::Rng rng(10);
    BlipFusion fusion(small_config(), rng);
    const Var text = Var::constant(Tensor::randn({6, 16}, rng));
    const Var img_a = Var::constant(Tensor::randn({16, 16}, rng));
    const Var img_b = Var::constant(Tensor::randn({16, 16}, rng));
    const Var fa = fusion.forward(img_a, text);
    const Var fb = fusion.forward(img_b, text);
    for (int i = 0; i < fa.value().size(); ++i) {
        EXPECT_NEAR(fa.value()[i], fb.value()[i], 1e-6f);
    }
}

TEST(BlipFusionTest, SensitiveToImageContentAfterTraining) {
    aero::util::Rng rng(10);
    BlipFusion fusion(small_config(), rng);
    const Var text = Var::constant(Tensor::randn({6, 16}, rng));
    const Var img_a = Var::constant(Tensor::randn({16, 16}, rng));
    const Var img_b = Var::constant(Tensor::randn({16, 16}, rng));

    // One optimisation step makes the attention path live.
    aero::nn::Adam opt(fusion.parameters(), {.lr = 0.05f});
    opt.zero_grad();
    const Var target = Var::constant(Tensor::randn({1, 16}, rng));
    ag::mse_loss(fusion.forward(img_a, text), target).backward();
    opt.step();

    const Var fa = fusion.forward(img_a, text);
    const Var fb = fusion.forward(img_b, text);
    float diff = 0.0f;
    for (int i = 0; i < fa.value().size(); ++i) {
        diff += std::abs(fa.value()[i] - fb.value()[i]);
    }
    EXPECT_GT(diff, 1e-5f);
}

TEST(RegionFeatureAugmenterTest, ShapesWithAndWithoutRois) {
    aero::util::Rng rng(11);
    RegionFeatureAugmenter augmenter(small_config(), rng);
    const Var global = Var::constant(Tensor::randn({1, 16}, rng));
    const Var rois = Var::constant(Tensor::randn({5, 16}, rng));
    const Var labels = Var::constant(Tensor::randn({5, 16}, rng));
    const Var fused = augmenter.forward(global, rois, labels);
    EXPECT_EQ(fused.value().dim(0), 1);
    EXPECT_EQ(fused.value().dim(1), 16);
    const Var plain = augmenter.forward(global);
    EXPECT_EQ(plain.value().dim(1), 16);
}

TEST(RegionFeatureAugmenterTest, StartsAsGlobalFeature) {
    // Fade-in design: at init f̂_X equals the plain global feature.
    aero::util::Rng rng(12);
    RegionFeatureAugmenter augmenter(small_config(), rng);
    const Var global = Var::constant(Tensor::randn({1, 16}, rng));
    const Var rois = Var::constant(Tensor::randn({4, 16}, rng));
    const Var labels = Var::constant(Tensor::randn({4, 16}, rng));
    const Var fused = augmenter.forward(global, rois, labels);
    for (int i = 0; i < fused.value().size(); ++i) {
        EXPECT_NEAR(fused.value()[i], global.value()[i], 1e-5f);
    }
}

TEST(RegionFeatureAugmenterTest, RoisChangeTheResultAfterTraining) {
    aero::util::Rng rng(12);
    RegionFeatureAugmenter augmenter(small_config(), rng);
    const Var global = Var::constant(Tensor::randn({1, 16}, rng));
    const Var rois_a = Var::constant(Tensor::randn({4, 16}, rng));
    const Var rois_b = Var::constant(Tensor::randn({4, 16}, rng));
    const Var labels = Var::constant(Tensor::randn({4, 16}, rng));

    aero::nn::Adam opt(augmenter.parameters(), {.lr = 0.05f});
    opt.zero_grad();
    const Var target = Var::constant(Tensor::randn({1, 16}, rng));
    ag::mse_loss(augmenter.forward(global, rois_a, labels), target)
        .backward();
    opt.step();

    const Var fa = augmenter.forward(global, rois_a, labels);
    const Var fb = augmenter.forward(global, rois_b, labels);
    float diff = 0.0f;
    for (int i = 0; i < fa.value().size(); ++i) {
        diff += std::abs(fa.value()[i] - fb.value()[i]);
    }
    EXPECT_GT(diff, 1e-6f);
}

TEST(RegionFeatureAugmenterTest, GradientsReachAllParams) {
    aero::util::Rng rng(13);
    RegionFeatureAugmenter augmenter(small_config(), rng);
    const Var global = Var::constant(Tensor::randn({1, 16}, rng));
    const Var rois = Var::constant(Tensor::randn({3, 16}, rng));
    const Var labels = Var::constant(Tensor::randn({3, 16}, rng));
    ag::mean_all(augmenter.forward(global, rois, labels)).backward();
    for (const Var& p : augmenter.parameters()) {
        EXPECT_FALSE(p.grad().empty());
    }
}

TEST(Integration, RoiPipelineEndToEnd) {
    // ROIs from ground-truth boxes -> image encoder -> augmenter.
    aero::scene::DatasetConfig ds_config;
    ds_config.train_size = 1;
    ds_config.test_size = 1;
    ds_config.image_size = 32;
    const aero::scene::AerialDataset dataset(ds_config);
    const auto& sample = dataset.train()[0];

    aero::util::Rng rng(14);
    const EmbedConfig config = small_config();
    ImageEncoder encoder(config, rng);
    TextEncoder text_encoder(config, rng);
    RegionFeatureAugmenter augmenter(config, rng);

    std::vector<aero::scene::BoundingBox> top_boxes(
        sample.gt_boxes.begin(),
        sample.gt_boxes.begin() + std::min<std::size_t>(4, sample.gt_boxes.size()));
    // One [R, 3, 32, 32] batch: one encoder forward covers every ROI.
    const Tensor rois =
        aero::detect::extract_rois(sample.image, top_boxes, 32);
    ASSERT_FALSE(rois.empty());
    const int count = static_cast<int>(top_boxes.size());
    EXPECT_EQ(rois.shape(), (std::vector<int>{count, 3, 32, 32}));

    std::vector<Var> label_feats;
    const auto& vocab = aero::text::Vocabulary::aerial();
    for (const aero::scene::BoundingBox& box : top_boxes) {
        label_feats.push_back(text_encoder.forward(
            vocab.encode(aero::scene::class_name(box.cls))));
    }
    const Var roi_feats = encoder.forward(Var::constant(rois));
    EXPECT_EQ(roi_feats.value().dim(0), count);
    const Var global = encoder.forward(Var::constant(
        sample.image.to_tensor_chw().reshaped({1, 3, 32, 32})));
    const Var fused = augmenter.forward(global, roi_feats,
                                        ag::concat(label_feats, 0));
    EXPECT_EQ(fused.value().dim(0), 1);
    EXPECT_EQ(fused.value().dim(1), config.dim);
}

}  // namespace
