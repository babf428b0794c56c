#include "serve/request.hpp"

namespace aero::serve {

const char* priority_name(Priority priority) {
    switch (priority) {
        case Priority::kInteractive: return "interactive";
        case Priority::kBatch: return "batch";
    }
    return "?";
}

const char* outcome_name(Outcome outcome) {
    switch (outcome) {
        case Outcome::kOk: return "ok";
        case Outcome::kDegraded: return "degraded";
        case Outcome::kShed: return "shed";
        case Outcome::kInvalid: return "invalid";
        case Outcome::kTimeout: return "timeout";
        case Outcome::kFailed: return "failed";
    }
    return "?";
}

const char* invalid_reason_name(InvalidReason reason) {
    switch (reason) {
        case InvalidReason::kNone: return "none";
        case InvalidReason::kEmptyCaption: return "empty_caption";
        case InvalidReason::kCaptionTooLong: return "caption_too_long";
        case InvalidReason::kCaptionNotText: return "caption_not_text";
        case InvalidReason::kCaptionUnknownWords:
            return "caption_unknown_words";
        case InvalidReason::kBadReferenceImage: return "bad_reference_image";
        case InvalidReason::kBadRegion: return "bad_region";
        case InvalidReason::kBadStrength: return "bad_strength";
        case InvalidReason::kBadDeadline: return "bad_deadline";
    }
    return "?";
}

}  // namespace aero::serve
