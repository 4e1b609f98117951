/**
 * @file
 * The pass shell shared by every streaming driver (private to ski/).
 *
 * A pass binds one input to the driver's cursor — a resident view, or
 * a ChunkSource plus its refill granularity, forwarded unchanged to the
 * StreamCursor constructor — optionally binds a structural semi-index,
 * runs the driver, treats StopStreaming as early termination (the
 * matches delivered so far are the valid partial result), and records
 * the ingestion totals.  Entry points only pick the driver and hand
 * over their input.  Nested replays over held spans construct a driver
 * the same way but call its own entry directly: their positions are
 * span-relative, which a document-absolute index cannot serve.
 */
#ifndef JSONSKI_SKI_PASS_H
#define JSONSKI_SKI_PASS_H

#include <utility>

#include "intervals/cursor.h"
#include "ski/sinks.h"
#include "ski/skipper.h"

namespace jsonski::index {
class StructuralIndex;
}

namespace jsonski::ski {

/**
 * Base of a driver @p Derived (which provides run()) reporting into a
 * @p Result (which carries stats, input_bytes and ingest).
 */
template <class Derived, class Result>
class Pass
{
  public:
    /**
     * Run the whole pass.  @p idx, when given, must have been built
     * from exactly this input; the skipper answers container ends and
     * primitive runs from it (DESIGN.md §14).  Resident input only.
     */
    void
    drive(const index::StructuralIndex* idx = nullptr)
    {
        if (idx != nullptr)
            skip_.bindIndex(idx, &depth_);
        try {
            static_cast<Derived*>(this)->run();
        } catch (const StopStreaming&) {
            // A sink requested early termination; the partial result
            // (matches delivered so far) is valid.
        }
        result_.input_bytes = cur_.size();
        result_.ingest = cur_.ingestStats();
    }

  protected:
    template <class... Input>
    explicit Pass(Result& result, Input&&... input)
        : cur_(std::forward<Input>(input)...),
          skip_(cur_, &result.stats),
          result_(result)
    {}

    intervals::StreamCursor cur_;
    Skipper skip_;
    Result& result_;
    /** Containers entered and not yet closed (index level source);
     *  drivers that never bind an index leave it at 0. */
    int depth_ = 0;
};

} // namespace jsonski::ski

#endif // JSONSKI_SKI_PASS_H
