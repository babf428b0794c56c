// Region inpainting: regenerate one region of an aerial image under
// text guidance while preserving the rest (RePaint-style latent
// inpainting on top of the trained AeroDiffusion model). A downstream
// use of the paper's system: scrubbing or re-imagining part of a scene
// (e.g. for privacy or augmentation) without touching the context.

#include <cstdio>

#include "aerodiffusion.hpp"

int main() {
    using namespace aero;

    const core::Budget budget = core::Budget::from_scale();
    scene::DatasetConfig dataset_config;
    dataset_config.train_size = budget.train_images;
    dataset_config.test_size = budget.test_images;
    dataset_config.image_size = budget.image_size;
    const scene::AerialDataset dataset(dataset_config);

    util::Rng rng(606);
    const core::Substrate substrate =
        core::build_substrate(dataset, budget, rng);
    core::AeroDiffusionPipeline pipeline(
        core::PipelineConfig::aero_diffusion(), substrate, rng);
    pipeline.fit(rng);

    const auto& reference = dataset.test().front();
    const std::string caption = substrate.keypoint_test.front().text;

    // Regenerate the central quarter of the scene.
    const int size = budget.image_size;
    scene::BoundingBox region;
    region.x = static_cast<float>(size) * 0.25f;
    region.y = static_cast<float>(size) * 0.25f;
    region.w = static_cast<float>(size) * 0.5f;
    region.h = static_cast<float>(size) * 0.5f;

    const image::Image inpainted = pipeline.generate(
        reference, caption, caption, rng, 0, nullptr,
        {.kind = diffusion::SamplerJob::Kind::kInpaint, .region = region});
    if (inpainted.width() != size || inpainted.height() != size) {
        std::fprintf(stderr, "inpainting returned a %dx%d image, expected "
                     "%dx%d\n", inpainted.width(), inpainted.height(), size,
                     size);
        return 1;
    }

    image::write_ppm(reference.image, "inpaint_reference.ppm");
    image::write_ppm(inpainted, "inpaint_result.ppm");

    // The border must be (nearly) preserved; the centre regenerated.
    double border_diff = 0.0;
    double centre_diff = 0.0;
    int border_px = 0;
    int centre_px = 0;
    for (int y = 0; y < size; ++y) {
        for (int x = 0; x < size; ++x) {
            const bool inside =
                x >= static_cast<int>(region.x) &&
                x < static_cast<int>(region.x + region.w) &&
                y >= static_cast<int>(region.y) &&
                y < static_cast<int>(region.y + region.h);
            for (int c = 0; c < 3; ++c) {
                const double d = std::abs(inpainted.at(x, y, c) -
                                          reference.image.at(x, y, c));
                if (inside) {
                    centre_diff += d;
                    ++centre_px;
                } else {
                    border_diff += d;
                    ++border_px;
                }
            }
        }
    }
    std::printf("mean abs change: preserved border %.4f, regenerated "
                "centre %.4f\n",
                border_diff / border_px, centre_diff / centre_px);
    std::printf("wrote inpaint_reference.ppm and inpaint_result.ppm\n");
    return 0;
}
