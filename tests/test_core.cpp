#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <vector>

#include "baselines/models.hpp"
#include "core/condition.hpp"
#include "core/pipeline.hpp"
#include "core/substrate.hpp"
#include "metrics/metrics.hpp"
#include "nn/ema.hpp"
#include "nn/serialize.hpp"
#include "tensor/ops.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"

namespace {

using namespace aero::core;
using aero::scene::AerialDataset;
using aero::scene::DatasetConfig;
using Kind = aero::diffusion::SamplerJob::Kind;

/// One tiny substrate shared by every test in this binary (expensive to
/// build, cheap to reuse; all consumers treat it as const).
const Substrate& shared_substrate() {
    static const Substrate substrate = [] {
        Budget budget = Budget::smoke();
        DatasetConfig config;
        config.train_size = budget.train_images;
        config.test_size = budget.test_images;
        config.image_size = budget.image_size;
        static const AerialDataset dataset(config);
        aero::util::Rng rng(2025);
        return build_substrate(dataset, budget, rng);
    }();
    return substrate;
}

TEST(BudgetTest, SmokeIsSmallestAndFromScaleIsSane) {
    const Budget smoke = Budget::smoke();
    const Budget standard{};
    EXPECT_LT(smoke.train_images, standard.train_images);
    EXPECT_LT(smoke.diffusion_steps, standard.diffusion_steps);
    EXPECT_LE(smoke.diffusion_steps, 60);
    const Budget b = Budget::from_scale();
    EXPECT_GT(b.train_images, 0);
    EXPECT_GT(b.eval_samples, 0);
    EXPECT_GE(b.ddim_steps, 1);
}

TEST(SubstrateTest, AllComponentsBuilt) {
    const Substrate& s = shared_substrate();
    EXPECT_NE(s.clip, nullptr);
    EXPECT_NE(s.autoencoder, nullptr);
    EXPECT_NE(s.detector, nullptr);
    EXPECT_NE(s.feature_net, nullptr);
    EXPECT_GT(s.latent_scale, 0.0f);
    EXPECT_EQ(s.keypoint_train.size(), s.dataset->train().size());
    EXPECT_EQ(s.generic_test.size(), s.dataset->test().size());
    EXPECT_EQ(s.train_latents.size(), s.dataset->train().size());
}

TEST(SubstrateTest, KeypointCaptionsRicherThanGeneric) {
    const Substrate& s = shared_substrate();
    double keypoint_cov = 0.0;
    double generic_cov = 0.0;
    for (std::size_t i = 0; i < s.keypoint_train.size(); ++i) {
        keypoint_cov += aero::text::keypoint_coverage(s.keypoint_train[i]);
        generic_cov += aero::text::keypoint_coverage(s.generic_train[i]);
    }
    EXPECT_GT(keypoint_cov, generic_cov);
}

TEST(SubstrateTest, LatentsAreNormalised) {
    const Substrate& s = shared_substrate();
    double sum_sq = 0.0;
    long count = 0;
    for (const auto& z : s.train_latents) {
        for (float v : z) {
            sum_sq += static_cast<double>(v) * v;
            ++count;
        }
    }
    const double rms = std::sqrt(sum_sq / static_cast<double>(count));
    EXPECT_GT(rms, 0.3);
    EXPECT_LT(rms, 3.0);
}

TEST(ConditionTest, FeaturesHaveExpectedShapes) {
    const Substrate& s = shared_substrate();
    const auto& sample = s.dataset->train()[0];
    const std::string caption = s.keypoint_train[0].text;
    const ConditionFeatures features = compute_condition_features(
        s, sample, caption, caption, /*use_object_detection=*/true, 8);
    const int d = s.embed_config.dim;
    EXPECT_EQ(features.image_tokens.dim(1), d);
    EXPECT_EQ(features.text_tokens.dim(1), d);
    EXPECT_EQ(features.clip_text.dim(0), 1);
    EXPECT_EQ(features.global_feature.dim(1), d);
    if (!features.roi_features.empty()) {
        EXPECT_EQ(features.roi_features.dim(1), d);
        EXPECT_EQ(features.roi_features.dim(0),
                  features.label_embeddings.dim(0));
    }
}

TEST(ConditionTest, EncoderRowCountsMatchFlags) {
    const Substrate& s = shared_substrate();
    aero::util::Rng rng(7);
    const auto& sample = s.dataset->train()[0];
    const std::string caption = s.keypoint_train[0].text;
    const ConditionFeatures features = compute_condition_features(
        s, sample, caption, caption, true, 8);

    // Full: C_xg, C_g, then the enhanced token set (f̂_X slot + regions).
    ConditionEncoder full(s.embed_config, true, true, true, rng);
    const int roi_rows = features.roi_features.empty()
                             ? 0
                             : features.roi_features.dim(0);
    EXPECT_EQ(full.encode(features).value().dim(0),
              features.roi_features.empty() ? 3 : 3 + roi_rows);

    ConditionEncoder text_only(s.embed_config, false, false, false, rng);
    EXPECT_EQ(text_only.encode(features).value().dim(0), 1);  // C_g

    ConditionEncoder no_fusion(s.embed_config, false, true, true, rng);
    EXPECT_EQ(no_fusion.encode(features).value().dim(0), 2);
}

TEST(ConditionTest, EncoderGradientsFlow) {
    const Substrate& s = shared_substrate();
    aero::util::Rng rng(8);
    const auto& sample = s.dataset->train()[0];
    const std::string caption = s.keypoint_train[0].text;
    const ConditionFeatures features = compute_condition_features(
        s, sample, caption, caption, true, 8);
    ConditionEncoder encoder(s.embed_config, true, true, true, rng);
    aero::autograd::mean_all(encoder.encode(features)).backward();
    int with_grad = 0;
    for (const auto& p : encoder.parameters()) {
        if (!p.grad().empty()) ++with_grad;
    }
    EXPECT_GT(with_grad, 0);
}

/// compute_condition_features' per-sample body from before it ran in
/// batched passes, kept as the reference the batch call must match: the
/// image trunk three times (tokens, embed_image_eval, f_X), the caption's
/// text tower twice, a one-image detect, and per ROI a crop ->
/// resize_bilinear -> to_tensor_chw chain, a batch-1 image forward and a
/// label-text forward.
ConditionFeatures reference_condition_features(
    const Substrate& substrate, const aero::scene::AerialSample& sample,
    const std::string& caption, const std::string& target_caption,
    bool use_object_detection, int max_rois) {
    using aero::autograd::Var;
    using aero::scene::BoundingBox;
    const aero::autograd::NoGradGuard no_grad;
    ConditionFeatures features;
    const aero::embed::ClipModel& clip = *substrate.clip;
    const aero::text::Vocabulary& vocab = aero::text::Vocabulary::aerial();
    const int size = substrate.budget.image_size;

    aero::image::Image sized = sample.image;
    if (sized.width() != size) {
        sized = aero::image::resize_bilinear(sized, size, size);
    }
    const Var image_var = Var::constant(
        sized.to_tensor_chw().reshaped({1, 3, size, size}));

    features.image_tokens =
        clip.image_encoder().encode(image_var).tokens.value();
    features.text_tokens =
        clip.text_encoder().forward_tokens(vocab.encode(caption)).value();
    features.clip_text = clip.embed_text_eval(target_caption);
    features.clip_image = clip.embed_image_eval(sample.image);
    features.global_feature =
        clip.image_encoder().forward(image_var).value();

    if (use_object_detection && substrate.detector) {
        std::vector<BoundingBox> boxes =
            substrate.detector->detect(sample.image);
        std::sort(boxes.begin(), boxes.end(),
                  [](const BoundingBox& a, const BoundingBox& b) {
                      return a.score > b.score;
                  });
        if (static_cast<int>(boxes.size()) > max_rois) {
            boxes.resize(static_cast<std::size_t>(max_rois));
        }
        if (!boxes.empty()) {
            std::vector<aero::tensor::Tensor> roi_rows;
            std::vector<aero::tensor::Tensor> label_rows;
            for (const BoundingBox& box : boxes) {
                const int pad_x = std::max(1, static_cast<int>(box.w * 0.25f));
                const int pad_y = std::max(1, static_cast<int>(box.h * 0.25f));
                const aero::image::Image patch = aero::image::crop(
                    sample.image, static_cast<int>(box.x) - pad_x,
                    static_cast<int>(box.y) - pad_y,
                    std::max(2, static_cast<int>(box.w) + 2 * pad_x),
                    std::max(2, static_cast<int>(box.h) + 2 * pad_y));
                const aero::image::Image roi =
                    aero::image::resize_bilinear(patch, size, size);
                roi_rows.push_back(
                    clip.image_encoder()
                        .forward(Var::constant(roi.to_tensor_chw().reshaped(
                            {1, 3, size, size})))
                        .value());
                label_rows.push_back(
                    clip.text_encoder()
                        .forward(vocab.encode(aero::scene::class_name(box.cls)))
                        .value());
            }
            features.roi_features = aero::tensor::concat(roi_rows, 0);
            features.label_embeddings = aero::tensor::concat(label_rows, 0);
        }
    }
    return features;
}

void expect_same_tensor(const aero::tensor::Tensor& got,
                        const aero::tensor::Tensor& want, const char* field,
                        const std::string& where) {
    ASSERT_EQ(got.shape(), want.shape()) << field << ", " << where;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<std::size_t>(got.size()) *
                              sizeof(float)),
              0)
        << field << ", " << where;
}

void expect_same_features(const ConditionFeatures& got,
                          const ConditionFeatures& want,
                          const std::string& where) {
    expect_same_tensor(got.image_tokens, want.image_tokens, "image_tokens",
                       where);
    expect_same_tensor(got.text_tokens, want.text_tokens, "text_tokens",
                       where);
    expect_same_tensor(got.clip_text, want.clip_text, "clip_text", where);
    expect_same_tensor(got.clip_image, want.clip_image, "clip_image", where);
    expect_same_tensor(got.global_feature, want.global_feature,
                       "global_feature", where);
    expect_same_tensor(got.roi_features, want.roi_features, "roi_features",
                       where);
    expect_same_tensor(got.label_embeddings, want.label_embeddings,
                       "label_embeddings", where);
    expect_same_tensor(got.extra_tokens, want.extra_tokens, "extra_tokens",
                       where);
}

/// The shared substrate's CLIP and detector, with the detector's
/// objectness logits raised by 3: most cells fire, so NMS leaves more
/// ROIs than max_rois = 12 keeps on most scenes, where the shared
/// detector (25 training steps) finds one box in a few scenes.
const Substrate& eager_detector_substrate() {
    static const Substrate substrate = [] {
        const Substrate& shared = shared_substrate();
        const auto copy_weights = [](const aero::nn::Module& from,
                                     const aero::nn::Module& to) {
            const auto src = from.parameters();
            auto dst = to.parameters();
            for (std::size_t i = 0; i < src.size(); ++i) {
                dst[i].mutable_value() = src[i].value();
            }
        };
        Substrate s;
        s.dataset = shared.dataset;
        s.budget = shared.budget;
        s.embed_config = shared.embed_config;
        aero::util::Rng rng(31);
        s.clip = std::make_unique<aero::embed::ClipModel>(s.embed_config, rng);
        copy_weights(*shared.clip, *s.clip);
        s.detector = std::make_unique<aero::detect::GridDetector>(
            shared.detector->config(), rng);
        copy_weights(*shared.detector, *s.detector);
        s.detector->parameters().back().mutable_value()[0] += 3.0f;
        return s;
    }();
    return substrate;
}

/// One batched call over `inputs` against the per-sample reference of
/// each. Returns the ROI rows the call produced, so a case can show it
/// exercised the detector.
int expect_batch_matches_reference(const Substrate& s,
                                   const std::vector<ConditionInput>& inputs,
                                   bool use_object_detection, int max_rois,
                                   const std::string& label) {
    const std::vector<ConditionFeatures> got = compute_condition_features(
        s, inputs, use_object_detection, max_rois);
    EXPECT_EQ(got.size(), inputs.size()) << label;
    int roi_rows = 0;
    for (std::size_t i = 0; i < inputs.size() && i < got.size(); ++i) {
        const ConditionFeatures want = reference_condition_features(
            s, *inputs[i].sample, *inputs[i].caption,
            *inputs[i].target_caption, use_object_detection, max_rois);
        expect_same_features(got[i], want,
                             label + ", input " + std::to_string(i));
        if (!got[i].roi_features.empty()) {
            roi_rows += got[i].roi_features.dim(0);
        }
    }
    return roi_rows;
}

/// A 128-sample split (the default budget's training split size) with
/// keypoint-aware captions, encoded by the shared smoke substrate.
struct WideSplit {
    AerialDataset dataset;
    std::vector<aero::text::Caption> captions;

    WideSplit()
        : dataset([] {
              DatasetConfig config;
              config.train_size = 128;
              config.test_size = 1;
              config.image_size = shared_substrate().budget.image_size;
              config.seed = 919;
              return config;
          }()) {
        aero::util::Rng rng(920);
        captions = caption_split(dataset.train(),
                                 aero::text::SimulatedLlm::keypoint_aware(),
                                 aero::text::PromptTemplate::keypoint_aware(),
                                 rng);
    }

    std::vector<ConditionInput> inputs(std::size_t count) const {
        std::vector<ConditionInput> out;
        for (std::size_t i = 0; i < count; ++i) {
            out.push_back({&dataset.train()[i], &captions[i].text,
                           &captions[i].text});
        }
        return out;
    }
};

TEST(ConditionTest, BatchedFeaturesMatchPerSampleReference) {
    const Substrate& eager = eager_detector_substrate();
    const WideSplit split;

    // The whole split in one call: eight full passes, most samples at
    // the 12-ROI cap.
    EXPECT_GT(expect_batch_matches_reference(eager, split.inputs(128), true,
                                             12, "128-sample split"),
              128 * 8);
    // One full pass and a one-sample pass.
    expect_batch_matches_reference(eager, split.inputs(17), true, 12,
                                   "17 samples");

    // Targets that differ from their caption, mixed with equal ones; one
    // target is another sample's caption, one is empty.
    {
        std::vector<ConditionInput> inputs = split.inputs(19);
        const std::string empty;
        inputs[1].target_caption = &split.captions[7].text;
        inputs[4].target_caption = &split.captions[90].text;
        inputs[16].target_caption = &split.captions[3].text;
        inputs[18].target_caption = &empty;
        expect_batch_matches_reference(eager, inputs, true, 12,
                                       "caption != target");
    }

    EXPECT_EQ(expect_batch_matches_reference(eager, split.inputs(20), false,
                                             12, "detection off"),
              0);
    for (const int max_rois : {0, 1, 8, 12}) {
        const int rows = expect_batch_matches_reference(
            eager, split.inputs(18), true, max_rois,
            "max_rois " + std::to_string(max_rois));
        EXPECT_EQ(rows, 18 * max_rois) << "the cap binds on every sample";
    }

    // The shared substrate's detector, and a scene it finds nothing in
    // between samples with ROIs.
    const Substrate& s = shared_substrate();
    expect_batch_matches_reference(s, split.inputs(17), true, 12,
                                   "shared detector");
    aero::scene::AerialSample blank = split.dataset.train()[0];
    blank.image = aero::image::Image(s.budget.image_size, s.budget.image_size,
                                     {0.0f, 0.0f, 0.0f});
    ASSERT_TRUE(s.detector->detect(blank.image).empty());
    std::vector<ConditionInput> inputs = split.inputs(40);
    inputs[2].sample = &blank;
    inputs[21].sample = &blank;
    EXPECT_GT(expect_batch_matches_reference(s, inputs, true, 12,
                                             "no detections"),
              0);
}

TEST(ConditionTest, NonSquareImageEncodesAsItsResizedCopy) {
    // A 32x48 image used to reach reshaped({1, 3, 32, 32}) unresized and
    // throw; every feature now derives from the encoder-size image.
    const Substrate& s = shared_substrate();
    const int size = s.budget.image_size;
    const std::string& caption = s.keypoint_train[2].text;
    for (const auto& [width, height] :
         {std::pair{size, size * 3 / 2}, std::pair{size * 3 / 2, size}}) {
        aero::scene::AerialSample odd = s.dataset->train()[2];
        odd.image = aero::image::resize_bilinear(odd.image, width, height);
        aero::scene::AerialSample copy = odd;
        copy.image = aero::image::resize_bilinear(odd.image, size, size);
        const ConditionFeatures got =
            compute_condition_features(s, odd, caption, caption, true, 12);
        const ConditionFeatures want =
            compute_condition_features(s, copy, caption, caption, true, 12);
        expect_same_features(got, want,
                             std::to_string(width) + "x" +
                                 std::to_string(height));
    }
}

TEST(PipelineConfigTest, Presets) {
    EXPECT_EQ(PipelineConfig::aero_diffusion().variant,
              ModelVariant::kAeroDiffusion);
    EXPECT_FALSE(PipelineConfig::stable_diffusion().use_keypoint_captions);
    EXPECT_FALSE(PipelineConfig::versatile_diffusion().use_blip_fusion);
    const PipelineConfig row1 = PipelineConfig::ablation(false, false, false);
    EXPECT_FALSE(row1.use_blip_fusion);
    EXPECT_FALSE(row1.use_image_feature);
    const PipelineConfig row4 = PipelineConfig::ablation(true, true, true);
    EXPECT_TRUE(row4.use_object_detection);
}

TEST(PipelineTest, FitAndGenerate) {
    const Substrate& s = shared_substrate();
    aero::util::Rng rng(9);
    AeroDiffusionPipeline pipeline(PipelineConfig::aero_diffusion(), s, rng);
    EXPECT_GT(pipeline.parameter_count(), 1000);
    const auto stats = pipeline.fit(rng);
    EXPECT_GT(stats.first_loss, 0.0f);
    EXPECT_TRUE(std::isfinite(stats.tail_loss));

    const auto& sample = s.dataset->test()[0];
    const std::string caption = s.keypoint_test[0].text;
    const aero::image::Image generated =
        pipeline.generate(sample, caption, caption, rng, 0);
    EXPECT_EQ(generated.width(), s.budget.image_size);
    for (float v : generated.data()) {
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 1.0f);
    }
}

TEST(PipelineTest, ViewpointTransitionChangesOutput) {
    const Substrate& s = shared_substrate();
    aero::util::Rng rng(10);
    AeroDiffusionPipeline pipeline(PipelineConfig::aero_diffusion(), s, rng);
    pipeline.fit(rng);
    const auto& sample = s.dataset->test()[0];
    const std::string caption = s.keypoint_test[0].text;
    const std::string moved =
        "A daytime aerial image of a tranquil park captured from a low "
        "altitude from an angle to the side.";
    aero::util::Rng rng_a(5);
    aero::util::Rng rng_b(5);
    const auto img_same = pipeline.generate(sample, caption, caption, rng_a, 0);
    const auto img_moved = pipeline.generate(sample, caption, moved, rng_b, 0);
    double diff = 0.0;
    for (std::size_t i = 0; i < img_same.data().size(); ++i) {
        diff += std::abs(img_same.data()[i] - img_moved.data()[i]);
    }
    EXPECT_GT(diff, 0.01);
}

TEST(PipelineTest, SaveLoadRoundTrip) {
    const Substrate& s = shared_substrate();
    aero::util::Rng rng_a(21);
    aero::util::Rng rng_b(22);  // different init
    AeroDiffusionPipeline a(PipelineConfig::aero_diffusion(), s, rng_a);
    AeroDiffusionPipeline b(PipelineConfig::aero_diffusion(), s, rng_b);
    a.fit(rng_a);
    const std::string path = testing::TempDir() + "/aero_pipeline";
    ASSERT_TRUE(a.save(path));
    ASSERT_TRUE(b.load(path));

    // Identical weights -> identical generations for the same seed.
    const auto& sample = s.dataset->test()[0];
    const std::string caption = s.keypoint_test[0].text;
    aero::util::Rng g1(5);
    aero::util::Rng g2(5);
    const auto img_a = a.generate(sample, caption, caption, g1, 0);
    const auto img_b = b.generate(sample, caption, caption, g2, 0);
    ASSERT_EQ(img_a.data().size(), img_b.data().size());
    for (std::size_t i = 0; i < img_a.data().size(); ++i) {
        EXPECT_EQ(img_a.data()[i], img_b.data()[i]);
    }
    std::remove((path + ".unet").c_str());
    std::remove((path + ".cond").c_str());
}

TEST(PipelineTest, LoadRejectsMismatchedArchitecture) {
    const Substrate& s = shared_substrate();
    aero::util::Rng rng(23);
    AeroDiffusionPipeline full(PipelineConfig::aero_diffusion(), s, rng);
    const std::string path = testing::TempDir() + "/aero_pipeline_mismatch";
    ASSERT_TRUE(full.save(path));
    // Text-only variant has a different condition encoder.
    AeroDiffusionPipeline text_only(PipelineConfig::stable_diffusion(), s,
                                    rng);
    EXPECT_FALSE(text_only.load(path));
    std::remove((path + ".unet").c_str());
    std::remove((path + ".cond").c_str());
}

TEST(PipelineTest, EditAndInpaintProduceValidImages) {
    const Substrate& s = shared_substrate();
    aero::util::Rng rng(24);
    AeroDiffusionPipeline pipeline(PipelineConfig::aero_diffusion(), s, rng);
    pipeline.fit(rng);
    const auto& sample = s.dataset->test()[0];
    const std::string caption = s.keypoint_test[0].text;

    const auto edited =
        pipeline.generate(sample, caption, caption, rng, 0, nullptr,
                          {.kind = Kind::kEdit, .strength = 0.4f});
    EXPECT_EQ(edited.width(), s.budget.image_size);
    for (float v : edited.data()) {
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 1.0f);
    }
    // Low-strength edits stay closer to the reference than full
    // generations (averaged over the image).
    aero::util::Rng rng_gen(7);
    const auto generated =
        pipeline.generate(sample, caption, caption, rng_gen, 0);
    const double psnr_edit = aero::image::psnr(sample.image, edited);
    const double psnr_gen = aero::image::psnr(sample.image, generated);
    EXPECT_GT(psnr_edit, psnr_gen - 3.0);  // never dramatically worse

    aero::scene::BoundingBox region{4, 4, 12, 12};
    const auto inpainted =
        pipeline.generate(sample, caption, caption, rng, 0, nullptr,
                          {.kind = Kind::kInpaint, .region = region});
    EXPECT_EQ(inpainted.width(), s.budget.image_size);
}

/// generate()'s per-kind logic rebuilt by hand from public pieces: the
/// condition encoder on freshly computed features, one SamplerJob (a
/// fresh shape, or the encoded reference latent plus the edit strength
/// or the inpaint mask), the sequential sampler, then unscale and
/// decode.
aero::image::Image hand_built_generate(const AeroDiffusionPipeline& pipeline,
                                       const aero::scene::AerialSample& sample,
                                       const std::string& caption,
                                       aero::util::Rng& rng,
                                       const GenerateTask& task) {
    namespace ops = aero::tensor;
    const Substrate& s = shared_substrate();
    const PipelineConfig& config = pipeline.config();
    const ConditionFeatures features = compute_condition_features(
        s, sample, caption, caption, config.use_object_detection,
        config.max_rois);

    const int channels = s.autoencoder->config().latent_channels;
    const int n = s.autoencoder->config().latent_size();
    aero::diffusion::SamplerJob job;
    job.kind = task.kind;
    job.condition_tokens =
        pipeline.condition_encoder().encode(features).value();
    job.config.inference_steps = s.budget.ddim_steps;
    job.config.guidance_scale = s.budget.guidance_scale;
    job.config.parameterization = config.parameterization;
    job.rng = &rng;
    if (task.kind == Kind::kSample) {
        job.shape = {channels, n, n};
    } else {
        job.source = ops::scale(s.autoencoder->encode_image(sample.image),
                                s.latent_scale);
    }
    if (task.kind == Kind::kEdit) job.strength = task.strength;
    if (task.kind == Kind::kInpaint) {
        // Clamped pixel box -> latent cells: near edges truncate, far
        // edges round up, at least one cell per axis.
        const aero::scene::BoundingBox box = *AeroDiffusionPipeline::
            clamp_region(task.region, s.budget.image_size, nullptr);
        const float to_latent =
            static_cast<float>(n) / static_cast<float>(s.budget.image_size);
        const int x0 = std::clamp(static_cast<int>(box.x * to_latent), 0,
                                  n - 1);
        const int y0 = std::clamp(static_cast<int>(box.y * to_latent), 0,
                                  n - 1);
        const int x1 = std::clamp(
            static_cast<int>(std::ceil((box.x + box.w) * to_latent)),
            x0 + 1, n);
        const int y1 = std::clamp(
            static_cast<int>(std::ceil((box.y + box.h) * to_latent)),
            y0 + 1, n);
        job.mask = aero::tensor::Tensor({channels, n, n});
        for (int c = 0; c < channels; ++c) {
            for (int y = y0; y < y1; ++y) {
                for (int x = x0; x < x1; ++x) {
                    job.mask[(c * n + y) * n + x] = 1.0f;
                }
            }
        }
    }
    const aero::tensor::Tensor latent = aero::diffusion::run_sampler_job(
        pipeline.unet(), pipeline.noise_schedule(), std::move(job));
    return s.autoencoder->decode_latent(
        ops::scale(latent, 1.0f / s.latent_scale));
}

TEST(PipelineTest, GenerateMatchesHandBuiltJobForEveryKind) {
    const Substrate& s = shared_substrate();
    aero::util::Rng init(41);
    const AeroDiffusionPipeline pipeline(PipelineConfig::aero_diffusion(), s,
                                         init);
    const auto& sample = s.dataset->test()[0];
    const std::string caption = s.keypoint_test[0].text;

    // Box far edges that fall inside a latent cell, so the mask's
    // rounding is observable; the second box is clamped at two sides.
    const aero::scene::BoundingBox interior{5, 5, 10, 10};
    const aero::scene::BoundingBox clamped{-6, 20, 17, 30};
    const std::vector<GenerateTask> tasks = {
        {},
        {.kind = Kind::kEdit, .strength = 0.3f},
        {.kind = Kind::kEdit, .strength = 1.0f},
        {.kind = Kind::kInpaint, .region = interior},
        {.kind = Kind::kInpaint, .region = clamped},
    };
    // A default control block must be as inert as none at all.
    for (const bool with_control : {false, true}) {
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            SCOPED_TRACE(testing::Message()
                         << "task " << i << (with_control ? " control" : ""));
            GenerateControl control;
            aero::util::Rng rng_a(900 + i);
            aero::util::Rng rng_b(900 + i);
            const aero::image::Image got = pipeline.generate(
                sample, caption, caption, rng_a, -1,
                with_control ? &control : nullptr, tasks[i]);
            const aero::image::Image want = hand_built_generate(
                pipeline, sample, caption, rng_b, tasks[i]);
            ASSERT_FALSE(got.empty());
            ASSERT_EQ(got.data().size(), want.data().size());
            EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                                  got.data().size() * sizeof(float)),
                      0);
            EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
        }
    }
}

void remove_checkpoint(const std::string& path) {
    std::remove((path + ".unet").c_str());
    std::remove((path + ".cond").c_str());
    std::remove((path + ".meta.json").c_str());
}

TEST(CheckpointTest, SaveLoadRoundTripRecordsStep) {
    const Substrate& s = shared_substrate();
    aero::util::Rng rng_a(31);
    aero::util::Rng rng_b(32);  // different init
    AeroDiffusionPipeline a(PipelineConfig::aero_diffusion(), s, rng_a);
    AeroDiffusionPipeline b(PipelineConfig::aero_diffusion(), s, rng_b);
    a.fit(rng_a);
    const std::string path = testing::TempDir() + "/aero_ckpt";
    ASSERT_TRUE(a.save_checkpoint(path, 17));

    int step = -1;
    ASSERT_TRUE(b.load_checkpoint(path, &step));
    EXPECT_EQ(step, 17);

    // Restored weights generate bit-identically for the same seed.
    const auto& sample = s.dataset->test()[0];
    const std::string caption = s.keypoint_test[0].text;
    aero::util::Rng g1(5);
    aero::util::Rng g2(5);
    const auto img_a = a.generate(sample, caption, caption, g1, 0);
    const auto img_b = b.generate(sample, caption, caption, g2, 0);
    ASSERT_EQ(img_a.data().size(), img_b.data().size());
    for (std::size_t i = 0; i < img_a.data().size(); ++i) {
        EXPECT_EQ(img_a.data()[i], img_b.data()[i]);
    }
    remove_checkpoint(path);
}

TEST(CheckpointTest, RejectsMissingGarbageAndWrongFormatMetadata) {
    const Substrate& s = shared_substrate();
    aero::util::Rng rng(33);
    AeroDiffusionPipeline pipeline(PipelineConfig::aero_diffusion(), s, rng);
    const std::string path = testing::TempDir() + "/aero_ckpt_meta";
    ASSERT_TRUE(pipeline.save_checkpoint(path, 5));

    EXPECT_FALSE(pipeline.load_checkpoint(path + "_nonexistent"));

    {  // malformed JSON sidecar
        std::ofstream meta(path + ".meta.json");
        meta << "{ \"format\": 2, \"step\": ";  // truncated
    }
    EXPECT_FALSE(pipeline.load_checkpoint(path));

    {  // valid JSON, old/unknown format version
        aero::util::JsonValue meta = aero::util::JsonValue::object();
        meta.set("format", 1);
        meta.set("step", 5);
        ASSERT_TRUE(meta.write_file(path + ".meta.json"));
    }
    EXPECT_FALSE(pipeline.load_checkpoint(path));
    remove_checkpoint(path);
}

TEST(CheckpointTest, FitWritesPeriodicCheckpointsAndResumes) {
    const Substrate& s = shared_substrate();
    const std::string path = testing::TempDir() + "/aero_ckpt_mid";
    PipelineConfig config = PipelineConfig::aero_diffusion();
    config.checkpoint_path = path;
    config.checkpoint_interval = 7;  // smoke budget trains 30 steps

    aero::util::Rng rng_a(34);
    AeroDiffusionPipeline a(config, s, rng_a);
    a.fit(rng_a);

    // Mid-training checkpoint exists and records a step on the cadence.
    aero::util::JsonValue meta;
    ASSERT_TRUE(
        aero::util::json_parse_file(path + ".meta.json", &meta));
    const aero::util::JsonValue* step = meta.find("step");
    ASSERT_NE(step, nullptr);
    const int recorded = static_cast<int>(step->as_number());
    EXPECT_GT(recorded, 0);
    EXPECT_EQ(recorded % config.checkpoint_interval, 0);

    // A fresh pipeline resumes from it and finishes the remaining steps.
    config.resume = true;
    aero::util::Rng rng_b(35);
    AeroDiffusionPipeline b(config, s, rng_b);
    int loaded_step = -1;
    ASSERT_TRUE(b.load_checkpoint(path, &loaded_step));
    EXPECT_EQ(loaded_step, recorded);
    const auto stats = b.fit(rng_b);
    EXPECT_FALSE(stats.diverged);
    EXPECT_TRUE(std::isfinite(stats.final_loss));
    remove_checkpoint(path);
}

TEST(PipelineTest, NanInjectionDuringFitRollsBackAndCompletes) {
    const Substrate& s = shared_substrate();
    aero::util::FaultInjector injector(41);
    injector.arm_nan(4, "param");
    PipelineConfig config = PipelineConfig::aero_diffusion();
    config.fault_injector = &injector;
    config.sentinel.snapshot_interval = 2;

    aero::util::Rng rng(36);
    AeroDiffusionPipeline pipeline(config, s, rng);
    const auto stats = pipeline.fit(rng);
    EXPECT_EQ(injector.injected_count(), 1);
    EXPECT_EQ(stats.nan_events, 1);
    EXPECT_GE(stats.rollbacks, 1);
    EXPECT_FALSE(stats.diverged);
    EXPECT_TRUE(std::isfinite(stats.tail_loss));
    EXPECT_GT(stats.tail_loss, 0.0f);
}

/// The UNet fields fit() trains with (the pipeline's unet_config_for).
aero::diffusion::UNetConfig reference_unet_config(
    const PipelineConfig& config) {
    const Substrate& s = shared_substrate();
    aero::diffusion::UNetConfig unet;
    unet.in_channels = s.autoencoder->config().latent_channels;
    unet.base_channels = config.unet_base_channels;
    unet.cond_dim = s.embed_config.dim;
    unet.time_dim = 32;
    return unet;
}

/// fit()'s own Eq. 6 loop from before it ran diffusion::train_diffusion,
/// kept as the reference for what fit() trains: `unet` and `encoder`
/// jointly, from `start_step` on. With a `resume_path`, their weights are
/// loaded from it after the optimizer is built, as that loop did. The
/// variants tested here add no extra condition tokens.
aero::diffusion::DiffusionTrainStats reference_fit(
    const PipelineConfig& config, aero::diffusion::UNet& unet,
    ConditionEncoder& encoder, aero::util::Rng& rng,
    const std::string& resume_path = "", int start_step = 0) {
    namespace ag = aero::autograd;
    namespace diffusion = aero::diffusion;
    using aero::autograd::Var;
    using aero::tensor::Tensor;
    const Substrate& s = shared_substrate();
    const diffusion::NoiseSchedule schedule(
        {s.budget.schedule_steps, 0.001f, 0.012f});
    const auto& train_split = s.dataset->train();
    const auto& captions =
        config.use_keypoint_captions ? s.keypoint_train : s.generic_train;

    std::vector<ConditionFeatures> train_features;
    for (std::size_t i = 0; i < train_split.size(); ++i) {
        train_features.push_back(compute_condition_features(
            s, train_split[i], captions[i].text, captions[i].text,
            config.use_object_detection, config.max_rois));
    }

    std::vector<Var> params = unet.parameters();
    {
        const std::vector<Var> cond_params = encoder.parameters();
        params.insert(params.end(), cond_params.begin(), cond_params.end());
    }
    aero::nn::Adam opt(params, {.lr = config.lr, .weight_decay = 1e-5f});
    if (!resume_path.empty()) {
        EXPECT_TRUE(aero::nn::load_parameters(unet, resume_path + ".unet"));
        EXPECT_TRUE(
            aero::nn::load_parameters(encoder, resume_path + ".cond"));
    }
    aero::nn::Ema ema(params, /*decay=*/0.99f);
    diffusion::DivergenceSentinel sentinel(params, opt, config.sentinel);
    aero::util::FaultInjector* injector = config.fault_injector;

    const std::vector<int>& latent_shape = s.train_latents.front().shape();
    const int c = latent_shape[0];
    const int h = latent_shape[1];
    const int w = latent_shape[2];
    const int batch = std::min<int>(s.budget.batch_size,
                                    static_cast<int>(train_split.size()));

    diffusion::DiffusionTrainStats stats;
    double tail_sum = 0.0;
    int tail_count = 0;
    bool first_recorded = false;
    for (int step = start_step; step < s.budget.diffusion_steps; ++step) {
        diffusion::inject_param_fault(injector, step, params);

        std::vector<Tensor> noisy;
        std::vector<Tensor> noise;
        std::vector<int> timesteps;
        std::vector<Var> conds;
        for (int b = 0; b < batch; ++b) {
            const int i = rng.uniform_int(
                0, static_cast<int>(train_split.size()) - 1);
            const int t = rng.uniform_int(0, schedule.steps() - 1);
            const Tensor eps = Tensor::randn(latent_shape, rng);
            const Tensor& z0 = s.train_latents[static_cast<std::size_t>(i)];
            noisy.push_back(
                schedule.q_sample(z0, t, eps).reshaped({1, c, h, w}));
            noise.push_back(schedule.training_target(
                z0, eps, t, config.parameterization));
            timesteps.push_back(t);

            if (rng.bernoulli(config.condition_dropout)) {
                conds.emplace_back();
                continue;
            }
            ConditionFeatures features =
                train_features[static_cast<std::size_t>(i)];
            if (config.variant == ModelVariant::kVersatile &&
                rng.bernoulli(0.5)) {
                features.clip_text = features.clip_image;
            }
            conds.push_back(encoder.encode(features));
        }

        const Var z_t = Var::constant(aero::tensor::concat(noisy, 0));
        const Var target = Var::constant(
            aero::tensor::concat(noise, 0).reshaped({batch, c, h, w}));

        opt.zero_grad();
        const Var eps_pred =
            unet.forward(z_t, timesteps, schedule.steps(), conds);
        const Var loss = ag::mse_loss(eps_pred, target);
        loss.backward();
        diffusion::inject_grad_fault(injector, step, params);
        const float grad_norm = opt.clip_grad_norm(config.grad_clip);
        const float value =
            diffusion::inject_loss_fault(injector, step, loss.value()[0]);

        const auto action = sentinel.observe(step, value, grad_norm);
        if (action == diffusion::DivergenceSentinel::Action::kAbort) break;
        if (action == diffusion::DivergenceSentinel::Action::kRollback) {
            continue;
        }

        opt.step();
        ema.update();

        if (!first_recorded) {
            stats.first_loss = value;
            first_recorded = true;
        }
        stats.final_loss = value;
        if (step >= s.budget.diffusion_steps * 3 / 4) {
            tail_sum += value;
            ++tail_count;
        }
    }
    if (tail_count > 0) {
        stats.tail_loss = static_cast<float>(tail_sum / tail_count);
    }
    stats.nan_events = sentinel.nan_events();
    stats.rollbacks = sentinel.rollbacks();
    stats.diverged = sentinel.diverged();
    if (!stats.diverged) ema.apply();
    return stats;
}

void expect_same_weights(const std::vector<aero::autograd::Var>& got,
                         const std::vector<aero::autograd::Var>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        const aero::tensor::Tensor& a = got[i].value();
        const aero::tensor::Tensor& b = want[i].value();
        ASSERT_EQ(a.shape(), b.shape()) << "parameter " << i;
        EXPECT_EQ(std::memcmp(a.data(), b.data(),
                              static_cast<std::size_t>(a.size()) *
                                  sizeof(float)),
                  0)
            << "parameter " << i;
    }
}

/// Trains one pipeline with fit() and a twin UNet + encoder with
/// reference_fit(), both built and trained from one seed, and asserts the
/// two end bit-identical: weights, loss stats and Rng post-state.
/// `reference_injector` is armed like config.fault_injector; a resumed
/// config's checkpoint holds `resume_step`. Returns fit()'s stats.
aero::diffusion::DiffusionTrainStats expect_fit_matches_reference(
    const PipelineConfig& config,
    aero::util::FaultInjector* reference_injector = nullptr,
    int resume_step = 0) {
    const Substrate& s = shared_substrate();
    aero::util::Rng rng_a(77);
    AeroDiffusionPipeline pipeline(config, s, rng_a);
    const auto got = pipeline.fit(rng_a);

    PipelineConfig reference_config = config;
    reference_config.fault_injector = reference_injector;
    aero::util::Rng rng_b(77);
    aero::diffusion::UNet unet(reference_unet_config(config), rng_b);
    ConditionEncoder encoder(s.embed_config, config.use_blip_fusion,
                             config.use_image_feature,
                             config.use_object_detection, rng_b);
    const auto want = reference_fit(
        reference_config, unet, encoder, rng_b,
        config.resume ? config.checkpoint_path : "", resume_step);

    expect_same_weights(pipeline.unet().parameters(), unet.parameters());
    expect_same_weights(pipeline.condition_encoder().parameters(),
                        encoder.parameters());
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got.first_loss),
              std::bit_cast<std::uint32_t>(want.first_loss));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got.final_loss),
              std::bit_cast<std::uint32_t>(want.final_loss));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got.tail_loss),
              std::bit_cast<std::uint32_t>(want.tail_loss));
    EXPECT_EQ(got.nan_events, want.nan_events);
    EXPECT_EQ(got.rollbacks, want.rollbacks);
    EXPECT_EQ(got.diverged, want.diverged);
    // normal() first: it returns a cached Box-Muller value if one is left.
    EXPECT_EQ(rng_a.normal(), rng_b.normal());
    EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
    return got;
}

TEST(FitReferenceTest, AeroDiffusion) {
    expect_fit_matches_reference(PipelineConfig::aero_diffusion());
}

TEST(FitReferenceTest, VersatileSwapDrawsAfterDropout) {
    expect_fit_matches_reference(PipelineConfig::versatile_diffusion());
}

TEST(FitReferenceTest, FaultInjected) {
    aero::util::FaultInjector injector(41);
    aero::util::FaultInjector twin(41);
    for (aero::util::FaultInjector* armed : {&injector, &twin}) {
        armed->arm_nan(4, "param");
        armed->arm_nan(12, "loss");
        armed->arm_spike(20, 100.0f);
    }
    PipelineConfig config = PipelineConfig::aero_diffusion();
    config.fault_injector = &injector;
    config.sentinel.snapshot_interval = 2;
    const auto stats = expect_fit_matches_reference(config, &twin);
    EXPECT_EQ(twin.injected_count(), 3);
    EXPECT_EQ(stats.nan_events, 2);
    EXPECT_EQ(stats.rollbacks, 3);
    EXPECT_FALSE(stats.diverged);
}

TEST(FitReferenceTest, ResumedFromStep7Checkpoint) {
    const Substrate& s = shared_substrate();
    const std::string path = testing::TempDir() + "/aero_fit_reference";
    {
        // Weights from another seed, so an ignored load shows.
        aero::util::Rng rng(5);
        const AeroDiffusionPipeline source(PipelineConfig::aero_diffusion(),
                                           s, rng);
        ASSERT_TRUE(source.save_checkpoint(path, 7));
    }
    PipelineConfig config = PipelineConfig::aero_diffusion();
    config.checkpoint_path = path;
    config.resume = true;
    expect_fit_matches_reference(config, nullptr, 7);
    remove_checkpoint(path);
}

TEST(PipelineTest, PoisonedConditionEncoderDegradesToUnconditional) {
    const Substrate& s = shared_substrate();
    aero::util::Rng rng(37);
    AeroDiffusionPipeline pipeline(PipelineConfig::aero_diffusion(), s, rng);
    // Parameter Vars share storage with the module, so poisoning the
    // copies corrupts the encoder exactly like a real numerical fault.
    for (aero::autograd::Var p : pipeline.condition_encoder().parameters()) {
        for (float& v : p.mutable_value()) {
            v = std::numeric_limits<float>::quiet_NaN();
        }
    }
    const auto& sample = s.dataset->test()[0];
    const std::string caption = s.keypoint_test[0].text;
    const auto img = pipeline.generate(sample, caption, caption, rng, 0);
    EXPECT_EQ(img.width(), s.budget.image_size);
    for (float v : img.data()) {
        EXPECT_TRUE(std::isfinite(v));
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 1.0f);
    }
}

TEST(BaselineModels, AllSixFitAndGenerate) {
    const Substrate& s = shared_substrate();
    aero::util::Rng rng(11);
    auto models = aero::baselines::make_table1_models(s, rng);
    ASSERT_EQ(models.size(), 6u);
    EXPECT_EQ(models[0]->name(), "DDPM");
    EXPECT_EQ(models[5]->name(), "AeroDiffusion");

    // Fit and sample just the two cheapest to keep the smoke test fast:
    // DDPM (distinct code path) and Versatile (pipeline path).
    for (const std::size_t index : {std::size_t{3}}) {
        auto& model = *models[index];
        model.fit(rng);
        const auto img = model.generate(s.dataset->test()[0], 0, rng);
        EXPECT_EQ(img.width(), s.budget.image_size);
    }
}

TEST(BaselineModels, DdpmIsUnconditionalPixelSpace) {
    const Substrate& s = shared_substrate();
    aero::util::Rng rng(12);
    aero::baselines::DdpmBaseline ddpm(s, rng);
    ddpm.fit(rng);
    const auto img = ddpm.generate(s.dataset->test()[0], 0, rng);
    EXPECT_EQ(img.width(), s.budget.image_size);
    EXPECT_EQ(img.height(), s.budget.image_size);
}

}  // namespace
