#include "image/image.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <fstream>

namespace aero::image {

Color lerp(const Color& a, const Color& b, float t) {
    return {a.r + (b.r - a.r) * t, a.g + (b.g - a.g) * t,
            a.b + (b.b - a.b) * t};
}

Color scale(const Color& c, float s) { return {c.r * s, c.g * s, c.b * s}; }

Image::Image(int width, int height)
    : width_(width), height_(height),
      data_(static_cast<std::size_t>(width * height * 3), 0.0f) {
    assert(width > 0 && height > 0);
}

Image::Image(int width, int height, const Color& fill) : Image(width, height) {
    for (int y = 0; y < height_; ++y) {
        for (int x = 0; x < width_; ++x) set_pixel(x, y, fill);
    }
}

float& Image::at(int x, int y, int channel) {
    assert(x >= 0 && x < width_ && y >= 0 && y < height_);
    return data_[static_cast<std::size_t>(index(x, y, channel))];
}

float Image::at(int x, int y, int channel) const {
    assert(x >= 0 && x < width_ && y >= 0 && y < height_);
    return data_[static_cast<std::size_t>(index(x, y, channel))];
}

Color Image::pixel(int x, int y) const {
    return {at(x, y, 0), at(x, y, 1), at(x, y, 2)};
}

void Image::set_pixel(int x, int y, const Color& c) {
    at(x, y, 0) = c.r;
    at(x, y, 1) = c.g;
    at(x, y, 2) = c.b;
}

void Image::blend_pixel(int x, int y, const Color& c, float alpha) {
    at(x, y, 0) += (c.r - at(x, y, 0)) * alpha;
    at(x, y, 1) += (c.g - at(x, y, 1)) * alpha;
    at(x, y, 2) += (c.b - at(x, y, 2)) * alpha;
}

void Image::clamp01() {
    for (float& v : data_) v = std::clamp(v, 0.0f, 1.0f);
}

float Image::mean_luminance() const {
    if (data_.empty()) return 0.0f;
    double acc = 0.0;
    for (int y = 0; y < height_; ++y) {
        for (int x = 0; x < width_; ++x) {
            const Color c = pixel(x, y);
            acc += 0.299 * c.r + 0.587 * c.g + 0.114 * c.b;
        }
    }
    return static_cast<float>(acc / (width_ * height_));
}

tensor::Tensor Image::to_tensor_chw() const {
    tensor::Tensor t({3, height_, width_});
    const int plane = height_ * width_;
    const float* src = data_.data();  // interleaved RGB rows
    float* dst = t.data();
    for (int i = 0; i < plane; ++i) {
        for (int c = 0; c < 3; ++c) {
            dst[c * plane + i] = src[i * 3 + c] * 2.0f - 1.0f;
        }
    }
    return t;
}

Image Image::from_tensor_chw(const tensor::Tensor& chw) {
    assert(chw.rank() == 3 && chw.dim(0) == 3);
    const int h = chw.dim(1);
    const int w = chw.dim(2);
    Image img(w, h);
    const int plane = h * w;
    const float* src = chw.data();
    float* dst = img.data_.data();  // interleaved RGB rows
    for (int i = 0; i < plane; ++i) {
        for (int c = 0; c < 3; ++c) {
            dst[i * 3 + c] =
                std::clamp((src[c * plane + i] + 1.0f) * 0.5f, 0.0f, 1.0f);
        }
    }
    return img;
}

bool write_ppm(const Image& img, const std::string& path) {
    std::ofstream out(path, std::ios::binary);
    if (!out) return false;
    out << "P6\n" << img.width() << ' ' << img.height() << "\n255\n";
    std::vector<unsigned char> row(static_cast<std::size_t>(img.width()) * 3);
    for (int y = 0; y < img.height(); ++y) {
        for (int x = 0; x < img.width(); ++x) {
            for (int c = 0; c < 3; ++c) {
                const float v = std::clamp(img.at(x, y, c), 0.0f, 1.0f);
                row[static_cast<std::size_t>(x * 3 + c)] =
                    static_cast<unsigned char>(std::lround(v * 255.0f));
            }
        }
        out.write(reinterpret_cast<const char*>(row.data()),
                  static_cast<std::streamsize>(row.size()));
    }
    return static_cast<bool>(out);
}

bool read_ppm(const std::string& path, Image* out_img) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::string magic;
    in >> magic;
    if (magic != "P6") return false;
    int w = 0;
    int h = 0;
    int max_v = 0;
    in >> w >> h >> max_v;
    if (!in || w <= 0 || h <= 0 || max_v != 255) return false;
    in.get();  // single whitespace after header
    Image img(w, h);
    std::vector<unsigned char> raw(static_cast<std::size_t>(w) * h * 3);
    in.read(reinterpret_cast<char*>(raw.data()),
            static_cast<std::streamsize>(raw.size()));
    if (!in) return false;
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            for (int c = 0; c < 3; ++c) {
                img.at(x, y, c) =
                    static_cast<float>(raw[static_cast<std::size_t>(
                        (y * w + x) * 3 + c)]) /
                    255.0f;
            }
        }
    }
    *out_img = std::move(img);
    return true;
}

namespace {

/// One output coordinate of a bilinear resize along one axis: the two
/// source coordinates it reads and the weight of the second.
struct Tap {
    int lo;
    int hi;
    float t;
};

/// Taps resizing the window [origin, origin + extent) of an axis of
/// `size` source pixels to `out` pixels. Window coordinates outside the
/// source repeat its edge pixel, as crop repeats them.
std::vector<Tap> bilinear_taps(int origin, int extent, int size, int out) {
    std::vector<Tap> taps(static_cast<std::size_t>(out));
    const float scale = static_cast<float>(extent) / static_cast<float>(out);
    for (int i = 0; i < out; ++i) {
        const float f = (static_cast<float>(i) + 0.5f) * scale - 0.5f;
        const int lo =
            std::clamp(static_cast<int>(std::floor(f)), 0, extent - 1);
        const int hi = std::min(lo + 1, extent - 1);
        taps[static_cast<std::size_t>(i)] = {
            std::clamp(origin + lo, 0, size - 1),
            std::clamp(origin + hi, 0, size - 1),
            std::clamp(f - static_cast<float>(lo), 0.0f, 1.0f)};
    }
    return taps;
}

/// Bilinear resize of the window [x, x + w) x [y, y + h) of `src` to
/// out_width x out_height: two horizontal lerps, then one vertical, per
/// output value v, handed to store(ox, oy, channel, v).
template <typename Store>
void resize_window(const Image& src, int x, int y, int w, int h,
                   int out_width, int out_height, Store&& store) {
    assert(w > 0 && h > 0 && out_width > 0 && out_height > 0);
    const std::vector<Tap> xs = bilinear_taps(x, w, src.width(), out_width);
    const std::vector<Tap> ys =
        bilinear_taps(y, h, src.height(), out_height);
    const float* pixels = src.data().data();  // interleaved RGB rows
    const int stride = src.width() * 3;
    for (int oy = 0; oy < out_height; ++oy) {
        const Tap& ty = ys[static_cast<std::size_t>(oy)];
        const float* row0 = pixels + ty.lo * stride;
        const float* row1 = pixels + ty.hi * stride;
        for (int ox = 0; ox < out_width; ++ox) {
            const Tap& tx = xs[static_cast<std::size_t>(ox)];
            for (int c = 0; c < 3; ++c) {
                const float p00 = row0[tx.lo * 3 + c];
                const float p10 = row0[tx.hi * 3 + c];
                const float p01 = row1[tx.lo * 3 + c];
                const float p11 = row1[tx.hi * 3 + c];
                const float top = p00 + (p10 - p00) * tx.t;
                const float bot = p01 + (p11 - p01) * tx.t;
                store(ox, oy, c, top + (bot - top) * ty.t);
            }
        }
    }
}

}  // namespace

Image resize_bilinear(const Image& src, int new_width, int new_height) {
    Image dst(new_width, new_height);
    float* out = dst.data().data();
    resize_window(src, 0, 0, src.width(), src.height(), new_width,
                  new_height, [&](int x, int y, int c, float v) {
                      out[(y * new_width + x) * 3 + c] = v;
                  });
    return dst;
}

void crop_resize_chw(const Image& src, int x, int y, int w, int h,
                     int out_width, int out_height, float* chw) {
    const int plane = out_width * out_height;
    resize_window(src, x, y, w, h, out_width, out_height,
                  [&](int ox, int oy, int c, float v) {
                      chw[c * plane + oy * out_width + ox] = v * 2.0f - 1.0f;
                  });
}

Image crop(const Image& src, int x, int y, int w, int h) {
    assert(w > 0 && h > 0);
    Image dst(w, h);
    const float* in = src.data().data();  // interleaved RGB rows
    float* out = dst.data().data();
    for (int dy = 0; dy < h; ++dy) {
        const int sy = std::clamp(y + dy, 0, src.height() - 1);
        for (int dx = 0; dx < w; ++dx) {
            const int sx = std::clamp(x + dx, 0, src.width() - 1);
            std::copy_n(in + (sy * src.width() + sx) * 3, 3,
                        out + (dy * w + dx) * 3);
        }
    }
    return dst;
}

void fill_rect(Image& img, int x, int y, int w, int h, const Color& c) {
    const int x0 = std::max(x, 0);
    const int y0 = std::max(y, 0);
    const int x1 = std::min(x + w, img.width());
    const int y1 = std::min(y + h, img.height());
    for (int yy = y0; yy < y1; ++yy) {
        for (int xx = x0; xx < x1; ++xx) img.set_pixel(xx, yy, c);
    }
}

void fill_oriented_rect(Image& img, float cx, float cy, float w, float h,
                        float angle, const Color& c, float alpha) {
    const float cos_a = std::cos(angle);
    const float sin_a = std::sin(angle);
    const float half_diag = 0.5f * std::sqrt(w * w + h * h);
    const int x0 = std::max(static_cast<int>(std::floor(cx - half_diag)), 0);
    const int y0 = std::max(static_cast<int>(std::floor(cy - half_diag)), 0);
    const int x1 =
        std::min(static_cast<int>(std::ceil(cx + half_diag)) + 1, img.width());
    const int y1 = std::min(static_cast<int>(std::ceil(cy + half_diag)) + 1,
                            img.height());
    for (int y = y0; y < y1; ++y) {
        for (int x = x0; x < x1; ++x) {
            // Rotate the pixel centre into the rectangle's frame.
            const float dx = static_cast<float>(x) + 0.5f - cx;
            const float dy = static_cast<float>(y) + 0.5f - cy;
            const float lx = dx * cos_a + dy * sin_a;
            const float ly = -dx * sin_a + dy * cos_a;
            if (std::abs(lx) <= w * 0.5f && std::abs(ly) <= h * 0.5f) {
                img.blend_pixel(x, y, c, alpha);
            }
        }
    }
}

void fill_disk(Image& img, float cx, float cy, float radius, const Color& c,
               float alpha) {
    const int x0 = std::max(static_cast<int>(std::floor(cx - radius)), 0);
    const int y0 = std::max(static_cast<int>(std::floor(cy - radius)), 0);
    const int x1 =
        std::min(static_cast<int>(std::ceil(cx + radius)) + 1, img.width());
    const int y1 =
        std::min(static_cast<int>(std::ceil(cy + radius)) + 1, img.height());
    const float r2 = radius * radius;
    for (int y = y0; y < y1; ++y) {
        for (int x = x0; x < x1; ++x) {
            const float dx = static_cast<float>(x) + 0.5f - cx;
            const float dy = static_cast<float>(y) + 0.5f - cy;
            if (dx * dx + dy * dy <= r2) img.blend_pixel(x, y, c, alpha);
        }
    }
}

void draw_line(Image& img, float x0, float y0, float x1, float y1,
               float thickness, const Color& c) {
    const float dx = x1 - x0;
    const float dy = y1 - y0;
    const float length = std::sqrt(dx * dx + dy * dy);
    const int steps = std::max(1, static_cast<int>(length * 2.0f));
    const float radius = std::max(thickness * 0.5f, 0.5f);
    for (int i = 0; i <= steps; ++i) {
        const float t = static_cast<float>(i) / static_cast<float>(steps);
        fill_disk(img, x0 + dx * t, y0 + dy * t, radius, c);
    }
}

Image box_blur(const Image& src, int radius) {
    if (radius <= 0) return src;
    Image tmp(src.width(), src.height());
    Image dst(src.width(), src.height());
    const float norm = 1.0f / static_cast<float>(2 * radius + 1);
    // Horizontal pass.
    for (int y = 0; y < src.height(); ++y) {
        for (int x = 0; x < src.width(); ++x) {
            float acc[3] = {0.0f, 0.0f, 0.0f};
            for (int k = -radius; k <= radius; ++k) {
                const int xx = std::clamp(x + k, 0, src.width() - 1);
                for (int c = 0; c < 3; ++c) acc[c] += src.at(xx, y, c);
            }
            for (int c = 0; c < 3; ++c) tmp.at(x, y, c) = acc[c] * norm;
        }
    }
    // Vertical pass.
    for (int y = 0; y < src.height(); ++y) {
        for (int x = 0; x < src.width(); ++x) {
            float acc[3] = {0.0f, 0.0f, 0.0f};
            for (int k = -radius; k <= radius; ++k) {
                const int yy = std::clamp(y + k, 0, src.height() - 1);
                for (int c = 0; c < 3; ++c) acc[c] += tmp.at(x, yy, c);
            }
            for (int c = 0; c < 3; ++c) dst.at(x, y, c) = acc[c] * norm;
        }
    }
    return dst;
}

void add_gaussian_noise(Image& img, util::Rng& rng, float stddev) {
    for (float& v : img.data()) {
        v += static_cast<float>(rng.normal(0.0, stddev));
    }
    img.clamp01();
}

void adjust_tone(Image& img, const Color& gain, const Color& bias) {
    for (std::size_t i = 0; i < img.data().size(); i += 3) {
        img.data()[i] = img.data()[i] * gain.r + bias.r;
        img.data()[i + 1] = img.data()[i + 1] * gain.g + bias.g;
        img.data()[i + 2] = img.data()[i + 2] * gain.b + bias.b;
    }
    img.clamp01();
}

double psnr(const Image& a, const Image& b) {
    assert(a.width() == b.width() && a.height() == b.height());
    double mse = 0.0;
    for (std::size_t i = 0; i < a.data().size(); ++i) {
        const double d = static_cast<double>(a.data()[i]) - b.data()[i];
        mse += d * d;
    }
    mse /= static_cast<double>(a.data().size());
    if (mse <= 1e-12) return 99.0;  // identical images: cap
    return 10.0 * std::log10(1.0 / mse);
}

}  // namespace aero::image
