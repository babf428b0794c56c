#include "embed/clip.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace aero::embed {

namespace ag = aero::autograd;

ClipModel::ClipModel(const EmbedConfig& config, util::Rng& rng)
    : config_(config),
      image_encoder_(config, rng),
      text_encoder_(config, rng) {
    register_child(image_encoder_);
    register_child(text_encoder_);
    // exp(2.0) ~ 7.4: a moderate starting temperature.
    logit_scale_ = register_parameter(Tensor::full({1, 1}, 2.0f));
}

Var ClipModel::embed_images(const Var& images) const {
    return normalize_rows(image_encoder_.forward(images));
}

Var ClipModel::embed_text(const std::vector<int>& token_ids) const {
    return normalize_rows(text_encoder_.forward(token_ids));
}

Var ClipModel::embed_texts(
    const std::vector<std::vector<int>>& batch) const {
    return normalize_rows(text_encoder_.forward_batch(batch));
}

Var ClipModel::contrastive_loss(
    const Var& images, const std::vector<std::vector<int>>& captions) const {
    const int n = images.value().dim(0);
    assert(static_cast<int>(captions.size()) == n);
    const Var img = embed_images(images);     // [N, d]
    const Var txt = embed_texts(captions);    // [N, d]

    // logits = exp(logit_scale) * img @ txt^T
    const float scale = std::exp(
        std::clamp(logit_scale_.value()[0], 0.0f, 4.0f));
    const Var logits = ag::scale(ag::matmul(img, ag::transpose2d(txt)), scale);

    std::vector<int> diagonal(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) diagonal[static_cast<std::size_t>(i)] = i;
    const Var loss_i2t = ag::cross_entropy_rows(logits, diagonal);
    const Var loss_t2i =
        ag::cross_entropy_rows(ag::transpose2d(logits), diagonal);
    return ag::scale(ag::add(loss_i2t, loss_t2i), 0.5f);
}

tensor::Tensor ClipModel::embed_image_eval(const image::Image& img) const {
    image::Image sized = img;
    if (img.width() != config_.image_size ||
        img.height() != config_.image_size) {
        sized = image::resize_bilinear(img, config_.image_size,
                                       config_.image_size);
    }
    const Var images = Var::constant(sized.to_tensor_chw().reshaped(
        {1, 3, config_.image_size, config_.image_size}));
    return embed_images(images).value();
}

tensor::Tensor ClipModel::embed_text_eval(const std::string& caption) const {
    const std::vector<int> ids = text::Vocabulary::aerial().encode(caption);
    return embed_text(ids).value();
}

ClipTrainStats train_clip(ClipModel& clip,
                          const std::vector<image::Image>& images,
                          const std::vector<std::string>& captions,
                          const ClipTrainConfig& config, util::Rng& rng) {
    assert(images.size() == captions.size() && !images.empty());
    const int size = clip.config().image_size;
    const text::Vocabulary& vocab = text::Vocabulary::aerial();

    std::vector<Tensor> image_tensors;
    std::vector<std::vector<int>> token_lists;
    image_tensors.reserve(images.size());
    token_lists.reserve(captions.size());
    for (std::size_t i = 0; i < images.size(); ++i) {
        image::Image sized = images[i];
        if (sized.width() != size || sized.height() != size) {
            sized = image::resize_bilinear(sized, size, size);
        }
        image_tensors.push_back(
            sized.to_tensor_chw().reshaped({1, 3, size, size}));
        token_lists.push_back(vocab.encode(captions[i]));
    }

    nn::Adam opt(clip.parameters(), {.lr = config.lr, .weight_decay = 1e-5f});
    ClipTrainStats stats;
    const int batch = std::min<int>(config.batch_size,
                                    static_cast<int>(images.size()));
    for (int step = 0; step < config.steps; ++step) {
        std::vector<Var> batch_images;
        std::vector<std::vector<int>> batch_captions;
        // Sample distinct indices so no duplicate positives confuse the
        // contrastive objective.
        std::vector<int> order(images.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
            order[i] = static_cast<int>(i);
        }
        rng.shuffle(order);
        for (int b = 0; b < batch; ++b) {
            const auto i = static_cast<std::size_t>(order[static_cast<std::size_t>(b)]);
            batch_images.push_back(Var::constant(image_tensors[i]));
            batch_captions.push_back(token_lists[i]);
        }
        opt.zero_grad();
        const Var loss = clip.contrastive_loss(ag::concat(batch_images, 0),
                                               batch_captions);
        loss.backward();
        opt.clip_grad_norm(5.0f);
        opt.step();
        if (step == 0) stats.first_loss = loss.value()[0];
        stats.final_loss = loss.value()[0];
    }
    return stats;
}

float clip_score(const ClipModel& clip, const image::Image& img,
                 const std::string& caption) {
    const tensor::Tensor a = clip.embed_image_eval(img);
    const tensor::Tensor b = clip.embed_text_eval(caption);
    float dot = 0.0f;
    for (int i = 0; i < a.size(); ++i) dot += a[i] * b[i];
    return 100.0f * std::max(dot, 0.0f);
}

}  // namespace aero::embed
