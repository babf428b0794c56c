#pragma once
// Float RGB image (values nominally in [0,1]) with the raster operations
// the scene renderer and the metrics need: PPM I/O, bilinear resize,
// crops, primitive drawing (axis-aligned and oriented rectangles, disks,
// lines), blur, noise and tensor conversion.

#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace aero::image {

struct Color {
    float r = 0.0f;
    float g = 0.0f;
    float b = 0.0f;
};

Color lerp(const Color& a, const Color& b, float t);
Color scale(const Color& c, float s);

class Image {
public:
    Image() = default;
    /// Black image of the given size.
    Image(int width, int height);
    /// Constant-colour image.
    Image(int width, int height, const Color& fill);

    int width() const { return width_; }
    int height() const { return height_; }
    bool empty() const { return data_.empty(); }

    float& at(int x, int y, int channel);
    float at(int x, int y, int channel) const;

    Color pixel(int x, int y) const;
    void set_pixel(int x, int y, const Color& c);
    /// Alpha-blends `c` over the existing pixel.
    void blend_pixel(int x, int y, const Color& c, float alpha);

    const std::vector<float>& data() const { return data_; }
    std::vector<float>& data() { return data_; }

    /// Clamps every channel into [0, 1].
    void clamp01();

    /// Mean of the per-pixel luminances (Rec. 601 weights).
    float mean_luminance() const;

    /// CHW float tensor in [-1, 1] (diffusion model convention).
    tensor::Tensor to_tensor_chw() const;
    /// Inverse of to_tensor_chw; clamps to [0, 1].
    static Image from_tensor_chw(const tensor::Tensor& chw);

private:
    int index(int x, int y, int channel) const {
        return (y * width_ + x) * 3 + channel;
    }

    int width_ = 0;
    int height_ = 0;
    std::vector<float> data_;  ///< interleaved RGB, row-major
};

// ---- I/O --------------------------------------------------------------------

/// Binary PPM (P6), 8-bit. Returns false on I/O failure.
bool write_ppm(const Image& img, const std::string& path);
/// Reads a binary PPM written by write_ppm (or any 8-bit P6).
bool read_ppm(const std::string& path, Image* out);

// ---- resampling -------------------------------------------------------------

Image resize_bilinear(const Image& src, int new_width, int new_height);
/// Copies the clamped region [x, x+w) x [y, y+h).
Image crop(const Image& src, int x, int y, int w, int h);
/// crop(src, x, y, w, h), then resize_bilinear to out_width x
/// out_height, then to_tensor_chw, bit for bit, without the two
/// intermediate images: writes the 3 * out_height * out_width CHW
/// values to `chw`.
void crop_resize_chw(const Image& src, int x, int y, int w, int h,
                     int out_width, int out_height, float* chw);

// ---- drawing ----------------------------------------------------------------

void fill_rect(Image& img, int x, int y, int w, int h, const Color& c);
/// Rectangle centred at (cx, cy), rotated by `angle` radians, alpha-blended.
void fill_oriented_rect(Image& img, float cx, float cy, float w, float h,
                        float angle, const Color& c, float alpha = 1.0f);
void fill_disk(Image& img, float cx, float cy, float radius, const Color& c,
               float alpha = 1.0f);
void draw_line(Image& img, float x0, float y0, float x1, float y1,
               float thickness, const Color& c);

// ---- filters ----------------------------------------------------------------

/// Separable box blur with the given radius (radius 0 returns a copy).
Image box_blur(const Image& src, int radius);
/// Adds i.i.d. Gaussian noise to every channel.
void add_gaussian_noise(Image& img, util::Rng& rng, float stddev);
/// Per-channel affine tone adjustment: v -> v * gain + bias.
void adjust_tone(Image& img, const Color& gain, const Color& bias);

// ---- metrics helpers --------------------------------------------------------

/// Peak signal-to-noise ratio in dB between same-sized images (peak = 1.0).
double psnr(const Image& a, const Image& b);

}  // namespace aero::image
