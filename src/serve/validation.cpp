#include "serve/validation.hpp"

#include <cmath>

#include "core/pipeline.hpp"
#include "text/vocabulary.hpp"
#include "util/strings.hpp"

namespace aero::serve {

namespace {

void fill(std::string* message, const std::string& detail) {
    if (message) *message = detail;
}

/// Printable ASCII plus blank whitespace; anything else (control bytes,
/// UTF-8 continuation garbage) marks the caption as not-text. The
/// caption grammar only ever emits this set.
bool is_caption_char(unsigned char c) {
    return c == ' ' || c == '\t' || c == '\n' || (c >= 0x20 && c < 0x7f);
}

}  // namespace

InvalidReason validate_caption(const std::string& caption,
                               const ValidationLimits& limits,
                               std::string* message) {
    if (caption.size() > limits.max_caption_chars) {
        fill(message, "caption of " + std::to_string(caption.size()) +
                          " chars exceeds limit of " +
                          std::to_string(limits.max_caption_chars));
        return InvalidReason::kCaptionTooLong;
    }
    for (const char c : caption) {
        if (!is_caption_char(static_cast<unsigned char>(c))) {
            fill(message, "caption contains non-text bytes");
            return InvalidReason::kCaptionNotText;
        }
    }
    const std::vector<std::string> words = util::split_whitespace(caption);
    if (words.empty()) {
        fill(message, "caption is empty");
        return InvalidReason::kEmptyCaption;
    }
    if (static_cast<int>(words.size()) > limits.max_caption_words) {
        fill(message, "caption of " + std::to_string(words.size()) +
                          " words exceeds limit of " +
                          std::to_string(limits.max_caption_words));
        return InvalidReason::kCaptionTooLong;
    }
    const text::Vocabulary& vocab = text::Vocabulary::aerial();
    int unknown = 0;
    for (const std::string& word : words) {
        if (vocab.id(text::normalize_word(word)) == vocab.unk_id()) {
            ++unknown;
        }
    }
    const double fraction =
        static_cast<double>(unknown) / static_cast<double>(words.size());
    if (fraction > limits.max_unknown_word_fraction) {
        fill(message, std::to_string(unknown) + "/" +
                          std::to_string(words.size()) +
                          " words outside the aerial vocabulary");
        return InvalidReason::kCaptionUnknownWords;
    }
    return InvalidReason::kNone;
}

InvalidReason validate_request(InferenceRequest& request,
                               const ValidationLimits& limits,
                               std::string* message) {
    InvalidReason reason =
        validate_caption(request.source_caption, limits, message);
    if (reason != InvalidReason::kNone) return reason;
    reason = validate_caption(request.target_caption, limits, message);
    if (reason != InvalidReason::kNone) return reason;

    using Pipeline = core::AeroDiffusionPipeline;
    if (!Pipeline::validate_reference(request.reference, limits.image_size,
                                      message)) {
        return InvalidReason::kBadReferenceImage;
    }

    if (!std::isfinite(request.deadline_ms) || request.deadline_ms < 0.0 ||
        request.deadline_ms > limits.max_deadline_ms) {
        fill(message, "deadline_ms must be in [0, " +
                          std::to_string(limits.max_deadline_ms) + "]");
        return InvalidReason::kBadDeadline;
    }

    core::GenerateTask& task = request.task;
    using Kind = diffusion::SamplerJob::Kind;
    if (task.kind == Kind::kEdit &&
        (!std::isfinite(task.strength) || task.strength <= 0.0f ||
         task.strength > 1.0f)) {
        fill(message, "edit strength must be in (0, 1]");
        return InvalidReason::kBadStrength;
    }

    if (task.kind == Kind::kInpaint) {
        const auto clamped =
            Pipeline::clamp_region(task.region, limits.image_size, message);
        if (!clamped) return InvalidReason::kBadRegion;
        task.region = *clamped;
    }
    return InvalidReason::kNone;
}

}  // namespace aero::serve
