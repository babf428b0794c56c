#pragma once
// Boundary validation for the inference service. Every malformed input
// is converted into a typed InvalidReason here, before any tensor math
// runs, so garbage can never reach the encoders as NaNs, oversized
// buffers or out-of-bounds indices. Captions produced by the repo's own
// caption grammar always pass.

#include "serve/request.hpp"

namespace aero::serve {

struct ValidationLimits {
    std::size_t max_caption_chars = 512;
    int max_caption_words = 96;
    /// Reject when more than this fraction of a caption's words map to
    /// <unk> in the aerial vocabulary: gibberish, binary garbage, the
    /// wrong language. 0.6 keeps hand-edited captions admissible while
    /// stopping fuzz noise.
    double max_unknown_word_fraction = 0.6;
    /// Expected reference image edge length (the substrate budget's
    /// image_size).
    int image_size = 32;
    double max_deadline_ms = 600000.0;  ///< 10 minutes
};

/// Validates `request` against `limits`. On success returns kNone and,
/// for inpaint tasks, writes the in-bounds clamped region back into
/// `request.task.region`; otherwise returns the first failure found and
/// fills `message` (when non-null) with the detail. The reference image
/// and region checks are the pipeline's own
/// (AeroDiffusionPipeline::validate_reference / clamp_region).
InvalidReason validate_request(InferenceRequest& request,
                               const ValidationLimits& limits,
                               std::string* message);

/// Single-caption check used by validate_request (exposed for fuzzing).
InvalidReason validate_caption(const std::string& caption,
                               const ValidationLimits& limits,
                               std::string* message);

}  // namespace aero::serve
