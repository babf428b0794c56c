#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "image/image.hpp"
#include "image/transforms.hpp"

namespace {

using aero::image::Color;
using aero::image::Image;

TEST(Image, ConstructionAndFill) {
    Image img(4, 3, {0.2f, 0.4f, 0.6f});
    EXPECT_EQ(img.width(), 4);
    EXPECT_EQ(img.height(), 3);
    EXPECT_FLOAT_EQ(img.at(2, 1, 1), 0.4f);
}

TEST(Image, PixelRoundTrip) {
    Image img(2, 2);
    img.set_pixel(1, 0, {0.1f, 0.5f, 0.9f});
    const Color c = img.pixel(1, 0);
    EXPECT_FLOAT_EQ(c.g, 0.5f);
}

TEST(Image, BlendPixel) {
    Image img(1, 1, {0.0f, 0.0f, 0.0f});
    img.blend_pixel(0, 0, {1.0f, 1.0f, 1.0f}, 0.25f);
    EXPECT_FLOAT_EQ(img.at(0, 0, 0), 0.25f);
}

TEST(Image, Clamp01) {
    Image img(1, 1, {2.0f, -1.0f, 0.5f});
    img.clamp01();
    EXPECT_FLOAT_EQ(img.at(0, 0, 0), 1.0f);
    EXPECT_FLOAT_EQ(img.at(0, 0, 1), 0.0f);
    EXPECT_FLOAT_EQ(img.at(0, 0, 2), 0.5f);
}

TEST(Image, MeanLuminance) {
    Image dark(4, 4, {0.0f, 0.0f, 0.0f});
    Image bright(4, 4, {1.0f, 1.0f, 1.0f});
    EXPECT_LT(dark.mean_luminance(), 0.01f);
    EXPECT_GT(bright.mean_luminance(), 0.99f);
}

TEST(Image, TensorRoundTrip) {
    Image img(3, 2);
    img.set_pixel(0, 0, {0.0f, 0.5f, 1.0f});
    img.set_pixel(2, 1, {0.25f, 0.75f, 0.1f});
    const auto t = img.to_tensor_chw();
    EXPECT_EQ(t.dim(0), 3);
    EXPECT_EQ(t.dim(1), 2);
    EXPECT_EQ(t.dim(2), 3);
    // [0,1] maps to [-1,1]
    EXPECT_NEAR(t[0], -1.0f, 1e-6f);
    const Image back = Image::from_tensor_chw(t);
    for (std::size_t i = 0; i < img.data().size(); ++i) {
        EXPECT_NEAR(back.data()[i], img.data()[i], 1e-5f);
    }
}

TEST(Image, PpmRoundTrip) {
    Image img(5, 4);
    for (int y = 0; y < 4; ++y) {
        for (int x = 0; x < 5; ++x) {
            img.set_pixel(x, y,
                          {static_cast<float>(x) / 4.0f,
                           static_cast<float>(y) / 3.0f, 0.5f});
        }
    }
    const std::string path = testing::TempDir() + "/aero_img.ppm";
    ASSERT_TRUE(aero::image::write_ppm(img, path));
    Image back;
    ASSERT_TRUE(aero::image::read_ppm(path, &back));
    ASSERT_EQ(back.width(), 5);
    ASSERT_EQ(back.height(), 4);
    for (std::size_t i = 0; i < img.data().size(); ++i) {
        EXPECT_NEAR(back.data()[i], img.data()[i], 1.0f / 255.0f);
    }
    std::remove(path.c_str());
}

TEST(Resize, PreservesConstantImage) {
    const Image img(8, 8, {0.3f, 0.6f, 0.9f});
    const Image small = aero::image::resize_bilinear(img, 3, 5);
    EXPECT_EQ(small.width(), 3);
    EXPECT_EQ(small.height(), 5);
    for (int y = 0; y < 5; ++y) {
        for (int x = 0; x < 3; ++x) {
            EXPECT_NEAR(small.at(x, y, 0), 0.3f, 1e-5f);
        }
    }
}

TEST(Resize, UpscaleInterpolates) {
    Image img(2, 1);
    img.set_pixel(0, 0, {0.0f, 0.0f, 0.0f});
    img.set_pixel(1, 0, {1.0f, 1.0f, 1.0f});
    const Image big = aero::image::resize_bilinear(img, 4, 1);
    EXPECT_LT(big.at(0, 0, 0), big.at(3, 0, 0));
}

TEST(Crop, ExtractsRegion) {
    Image img(6, 6);
    img.set_pixel(3, 2, {1.0f, 0.0f, 0.0f});
    const Image c = aero::image::crop(img, 2, 1, 3, 3);
    EXPECT_EQ(c.width(), 3);
    EXPECT_FLOAT_EQ(c.at(1, 1, 0), 1.0f);
}

TEST(Crop, ClampsOutOfBounds) {
    Image img(4, 4, {0.5f, 0.5f, 0.5f});
    const Image c = aero::image::crop(img, -2, -2, 3, 3);
    EXPECT_FLOAT_EQ(c.at(0, 0, 0), 0.5f);
}

TEST(Draw, FillRect) {
    Image img(8, 8);
    aero::image::fill_rect(img, 2, 2, 3, 2, {1.0f, 0.0f, 0.0f});
    EXPECT_FLOAT_EQ(img.at(2, 2, 0), 1.0f);
    EXPECT_FLOAT_EQ(img.at(4, 3, 0), 1.0f);
    EXPECT_FLOAT_EQ(img.at(5, 2, 0), 0.0f);
    // Out-of-bounds rect is clipped, not UB.
    aero::image::fill_rect(img, 6, 6, 10, 10, {0.0f, 1.0f, 0.0f});
    EXPECT_FLOAT_EQ(img.at(7, 7, 1), 1.0f);
}

TEST(Draw, OrientedRectRotates) {
    Image axis(16, 16);
    Image rot(16, 16);
    aero::image::fill_oriented_rect(axis, 8, 8, 10, 2, 0.0f, {1, 1, 1});
    aero::image::fill_oriented_rect(rot, 8, 8, 10, 2, 1.5708f, {1, 1, 1});
    // Horizontal bar covers (13,8); vertical bar covers (8,13).
    EXPECT_GT(axis.at(12, 8, 0), 0.5f);
    EXPECT_LT(axis.at(8, 12, 0), 0.5f);
    EXPECT_GT(rot.at(8, 12, 0), 0.5f);
    EXPECT_LT(rot.at(12, 8, 0), 0.5f);
}

TEST(Draw, DiskAndLine) {
    Image img(16, 16);
    aero::image::fill_disk(img, 8, 8, 3.0f, {0, 1, 0});
    EXPECT_FLOAT_EQ(img.at(8, 8, 1), 1.0f);
    EXPECT_FLOAT_EQ(img.at(14, 14, 1), 0.0f);
    aero::image::draw_line(img, 0, 0, 15, 0, 1.0f, {1, 0, 0});
    EXPECT_GT(img.at(7, 0, 0), 0.5f);
}

TEST(Filters, BoxBlurSmooths) {
    Image img(9, 9);
    img.set_pixel(4, 4, {1.0f, 1.0f, 1.0f});
    const Image blurred = aero::image::box_blur(img, 1);
    EXPECT_LT(blurred.at(4, 4, 0), 1.0f);
    EXPECT_GT(blurred.at(3, 4, 0), 0.0f);
    // Energy is conserved away from borders.
    double total = 0.0;
    for (float v : blurred.data()) total += v;
    EXPECT_NEAR(total, 3.0, 1e-4);
}

TEST(Filters, NoiseChangesImage) {
    aero::util::Rng rng(1);
    Image img(8, 8, {0.5f, 0.5f, 0.5f});
    aero::image::add_gaussian_noise(img, rng, 0.1f);
    double var = 0.0;
    for (float v : img.data()) {
        var += (v - 0.5) * (v - 0.5);
    }
    var /= static_cast<double>(img.data().size());
    EXPECT_GT(var, 1e-4);
    EXPECT_LT(var, 0.05);
}

TEST(Filters, AdjustTone) {
    Image img(2, 2, {0.5f, 0.5f, 0.5f});
    aero::image::adjust_tone(img, {0.5f, 1.0f, 2.0f}, {0.0f, 0.1f, 0.0f});
    EXPECT_FLOAT_EQ(img.at(0, 0, 0), 0.25f);
    EXPECT_FLOAT_EQ(img.at(0, 0, 1), 0.6f);
    EXPECT_FLOAT_EQ(img.at(0, 0, 2), 1.0f);  // clamped
}

// Parameterized resize sweep: constant images stay constant and output
// sizes are exact for arbitrary aspect changes.
class ResizeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ResizeSweep, ConstantImagePreserved) {
    const auto [w0, h0, w1, h1] = GetParam();
    const Image img(w0, h0, {0.3f, 0.6f, 0.9f});
    const Image out = aero::image::resize_bilinear(img, w1, h1);
    ASSERT_EQ(out.width(), w1);
    ASSERT_EQ(out.height(), h1);
    for (int y = 0; y < h1; ++y) {
        for (int x = 0; x < w1; ++x) {
            EXPECT_NEAR(out.at(x, y, 0), 0.3f, 1e-5f);
            EXPECT_NEAR(out.at(x, y, 2), 0.9f, 1e-5f);
        }
    }
}

TEST_P(ResizeSweep, EnergyRoughlyPreservedOnSmoothImages) {
    const auto [w0, h0, w1, h1] = GetParam();
    // Smooth gradient image: mean value survives resampling.
    Image img(w0, h0);
    for (int y = 0; y < h0; ++y) {
        for (int x = 0; x < w0; ++x) {
            const float v = static_cast<float>(x + y) /
                            static_cast<float>(w0 + h0);
            img.set_pixel(x, y, {v, v, v});
        }
    }
    const Image out = aero::image::resize_bilinear(img, w1, h1);
    EXPECT_NEAR(out.mean_luminance(), img.mean_luminance(), 0.05f);
}

/// resize_bilinear as it was written before it shared one kernel with
/// crop_resize_chw: per pixel through Image::at, the two horizontal
/// lerps and the vertical one rounded in this order.
Image reference_resize_bilinear(const Image& src, int new_width,
                                int new_height) {
    Image dst(new_width, new_height);
    const float sx = static_cast<float>(src.width()) / new_width;
    const float sy = static_cast<float>(src.height()) / new_height;
    for (int y = 0; y < new_height; ++y) {
        const float fy = (static_cast<float>(y) + 0.5f) * sy - 0.5f;
        const int y0 = std::clamp(static_cast<int>(std::floor(fy)), 0,
                                  src.height() - 1);
        const int y1 = std::min(y0 + 1, src.height() - 1);
        const float ty = std::clamp(fy - static_cast<float>(y0), 0.0f, 1.0f);
        for (int x = 0; x < new_width; ++x) {
            const float fx = (static_cast<float>(x) + 0.5f) * sx - 0.5f;
            const int x0 = std::clamp(static_cast<int>(std::floor(fx)), 0,
                                      src.width() - 1);
            const int x1 = std::min(x0 + 1, src.width() - 1);
            const float tx =
                std::clamp(fx - static_cast<float>(x0), 0.0f, 1.0f);
            for (int c = 0; c < 3; ++c) {
                const float top = src.at(x0, y0, c) +
                                  (src.at(x1, y0, c) - src.at(x0, y0, c)) * tx;
                const float bot = src.at(x0, y1, c) +
                                  (src.at(x1, y1, c) - src.at(x0, y1, c)) * tx;
                dst.at(x, y, c) = top + (bot - top) * ty;
            }
        }
    }
    return dst;
}

Image noise_image(int width, int height, std::uint64_t seed) {
    Image img(width, height, {0.5f, 0.5f, 0.5f});
    aero::util::Rng rng(seed);
    aero::image::add_gaussian_noise(img, rng, 0.3f);
    return img;
}

TEST_P(ResizeSweep, BitIdenticalToPerPixelReference) {
    const auto [w0, h0, w1, h1] = GetParam();
    const Image img = noise_image(w0, h0, 11);
    const Image out = aero::image::resize_bilinear(img, w1, h1);
    const Image want = reference_resize_bilinear(img, w1, h1);
    ASSERT_EQ(out.width(), want.width());
    ASSERT_EQ(out.height(), want.height());
    EXPECT_EQ(std::memcmp(out.data().data(), want.data().data(),
                          sizeof(float) * want.data().size()),
              0);
}

TEST_P(ResizeSweep, CropResizeChwMatchesCropResizeToTensor) {
    // Windows inside, across every edge and larger than the image, each
    // resized to the sweep's output size.
    const auto [w0, h0, w1, h1] = GetParam();
    const Image img = noise_image(w0, h0, 12);
    const std::vector<std::array<int, 4>> windows = {
        {0, 0, w0, h0},          {1, 0, 2, 2},
        {-2, -3, 5, 4},          {w0 - 1, h0 - 2, 4, 6},
        {-3, -3, w0 + 6, h0 + 6}, {w0 + 2, -5, 3, 3}};
    for (const auto& [x, y, w, h] : windows) {
        const aero::tensor::Tensor want =
            aero::image::resize_bilinear(aero::image::crop(img, x, y, w, h),
                                         w1, h1)
                .to_tensor_chw();
        std::vector<float> got(static_cast<std::size_t>(want.size()));
        aero::image::crop_resize_chw(img, x, y, w, h, w1, h1, got.data());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              sizeof(float) * got.size()),
                  0)
            << "window " << x << "," << y << " " << w << "x" << h;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ResizeSweep,
    ::testing::Values(std::make_tuple(8, 8, 16, 16),
                      std::make_tuple(16, 16, 8, 8),
                      std::make_tuple(32, 16, 16, 32),
                      std::make_tuple(7, 13, 13, 7),
                      std::make_tuple(1, 1, 4, 4)));

// to_tensor_chw, from_tensor_chw and crop as they were written before
// they indexed the pixel buffer directly: per pixel through Image::at.
aero::tensor::Tensor reference_to_tensor_chw(const Image& img) {
    const int w = img.width();
    const int h = img.height();
    aero::tensor::Tensor t({3, h, w});
    for (int c = 0; c < 3; ++c) {
        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
                t[(c * h + y) * w + x] = img.at(x, y, c) * 2.0f - 1.0f;
            }
        }
    }
    return t;
}

Image reference_from_tensor_chw(const aero::tensor::Tensor& chw) {
    const int h = chw.dim(1);
    const int w = chw.dim(2);
    Image img(w, h);
    for (int c = 0; c < 3; ++c) {
        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
                img.at(x, y, c) = std::clamp(
                    (chw[(c * h + y) * w + x] + 1.0f) * 0.5f, 0.0f, 1.0f);
            }
        }
    }
    return img;
}

Image reference_crop(const Image& src, int x, int y, int w, int h) {
    Image dst(w, h);
    for (int dy = 0; dy < h; ++dy) {
        const int sy = std::clamp(y + dy, 0, src.height() - 1);
        for (int dx = 0; dx < w; ++dx) {
            const int sx = std::clamp(x + dx, 0, src.width() - 1);
            dst.set_pixel(dx, dy, src.pixel(sx, sy));
        }
    }
    return dst;
}

bool same_pixels(const Image& a, const Image& b) {
    return a.width() == b.width() && a.height() == b.height() &&
           std::memcmp(a.data().data(), b.data().data(),
                       sizeof(float) * a.data().size()) == 0;
}

TEST(DirectIndexing, BitIdenticalToPerPixelReference) {
    const std::array<std::array<int, 2>, 4> sizes = {
        {{8, 8}, {7, 13}, {13, 7}, {1, 5}}};
    for (const auto& [w, h] : sizes) {
        SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
        const Image img = noise_image(w, h, 21);
        const aero::tensor::Tensor chw = img.to_tensor_chw();
        const aero::tensor::Tensor want_chw = reference_to_tensor_chw(img);
        ASSERT_TRUE(chw.same_shape(want_chw));
        EXPECT_EQ(std::memcmp(chw.data(), want_chw.data(),
                              sizeof(float) * static_cast<std::size_t>(
                                                  chw.size())),
                  0);

        // Values past [-1, 1] exercise the clamp.
        aero::util::Rng rng(22);
        const aero::tensor::Tensor noisy =
            aero::tensor::Tensor::randn({3, h, w}, rng, 0.0f, 1.5f);
        EXPECT_TRUE(same_pixels(Image::from_tensor_chw(noisy),
                                reference_from_tensor_chw(noisy)));

        const std::vector<std::array<int, 4>> windows = {
            {0, 0, w, h},        {1, 0, 2, 2},         {-2, -3, 5, 4},
            {w - 1, h - 2, 4, 6}, {-3, -3, w + 6, h + 6}, {w + 2, -5, 3, 3}};
        for (const auto& [x, y, cw, ch] : windows) {
            EXPECT_TRUE(same_pixels(aero::image::crop(img, x, y, cw, ch),
                                    reference_crop(img, x, y, cw, ch)))
                << "window " << x << "," << y << " " << cw << "x" << ch;
        }
    }
}

TEST(Draw, OrientedRectAreaStableUnderRotation) {
    // The covered area of a rotated rectangle must stay roughly equal at
    // any angle (property of the scan-fill).
    for (float angle : {0.0f, 0.4f, 0.8f, 1.2f, 1.57f}) {
        Image img(64, 64);
        aero::image::fill_oriented_rect(img, 32, 32, 20, 8, angle,
                                        {1, 1, 1});
        double covered = 0.0;
        for (float v : img.data()) covered += v;
        covered /= 3.0;  // three channels
        EXPECT_NEAR(covered, 160.0, 30.0) << "angle " << angle;
    }
}

TEST(Transforms, FlipsAreInvolutions) {
    aero::util::Rng rng(60);
    Image img(7, 5);
    for (auto& v : img.data()) v = static_cast<float>(rng.uniform());
    const Image h2 = aero::image::flip_horizontal(
        aero::image::flip_horizontal(img));
    const Image v2 = aero::image::flip_vertical(
        aero::image::flip_vertical(img));
    for (std::size_t i = 0; i < img.data().size(); ++i) {
        EXPECT_EQ(h2.data()[i], img.data()[i]);
        EXPECT_EQ(v2.data()[i], img.data()[i]);
    }
}

TEST(Transforms, Rotate90FourTimesIsIdentity) {
    aero::util::Rng rng(61);
    Image img(6, 4);
    for (auto& v : img.data()) v = static_cast<float>(rng.uniform());
    Image rotated = img;
    for (int i = 0; i < 4; ++i) rotated = aero::image::rotate90_cw(rotated);
    ASSERT_EQ(rotated.width(), img.width());
    for (std::size_t i = 0; i < img.data().size(); ++i) {
        EXPECT_EQ(rotated.data()[i], img.data()[i]);
    }
    // One turn swaps dimensions.
    const Image once = aero::image::rotate90_cw(img);
    EXPECT_EQ(once.width(), img.height());
    EXPECT_EQ(once.height(), img.width());
}

TEST(Transforms, BoxTransformsTrackPixels) {
    // Mark a pixel, transform image and box, check the box still covers
    // the marked pixel.
    Image img(16, 12);
    img.set_pixel(3, 2, {1.0f, 0.0f, 0.0f});
    const aero::image::Box box{3.0f, 2.0f, 1.0f, 1.0f};

    const Image flipped = aero::image::flip_horizontal(img);
    const auto fbox = aero::image::flip_box_horizontal(box, 16);
    EXPECT_GT(flipped.at(static_cast<int>(fbox.x), static_cast<int>(fbox.y),
                         0),
              0.5f);

    const Image vflipped = aero::image::flip_vertical(img);
    const auto vbox = aero::image::flip_box_vertical(box, 12);
    EXPECT_GT(vflipped.at(static_cast<int>(vbox.x),
                          static_cast<int>(vbox.y), 0),
              0.5f);

    const Image rotated = aero::image::rotate90_cw(img);
    const auto rbox = aero::image::rotate_box90_cw(box, 16, 12);
    EXPECT_GT(rotated.at(static_cast<int>(rbox.x), static_cast<int>(rbox.y),
                         0),
              0.5f);
    // Width/height swap for the rotated box.
    EXPECT_FLOAT_EQ(rbox.w, box.h);
    EXPECT_FLOAT_EQ(rbox.h, box.w);
}

TEST(Psnr, IdenticalIsCapped) {
    const Image img(4, 4, {0.5f, 0.2f, 0.7f});
    EXPECT_DOUBLE_EQ(aero::image::psnr(img, img), 99.0);
}

TEST(Psnr, KnownValue) {
    Image a(2, 2, {0.0f, 0.0f, 0.0f});
    Image b(2, 2, {0.1f, 0.1f, 0.1f});
    // MSE = 0.01 -> PSNR = 20 dB.
    EXPECT_NEAR(aero::image::psnr(a, b), 20.0, 1e-6);
}

TEST(Psnr, OrderingMatchesError) {
    Image ref(4, 4, {0.5f, 0.5f, 0.5f});
    Image close(4, 4, {0.55f, 0.55f, 0.55f});
    Image far(4, 4, {0.9f, 0.9f, 0.9f});
    EXPECT_GT(aero::image::psnr(ref, close), aero::image::psnr(ref, far));
}

}  // namespace
