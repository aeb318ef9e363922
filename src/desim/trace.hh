/**
 * @file
 * Lightweight event tracing for simulator debugging, in the spirit of
 * gem5's DPRINTF categories.
 *
 * A TraceSink collects (tick, category, message) records into a
 * bounded ring and optionally streams them to an ostream as they
 * arrive. Components guard emission on category enablement so tracing
 * costs nothing when the category is off.
 */

#ifndef SBN_DESIM_TRACE_HH
#define SBN_DESIM_TRACE_HH

#include <deque>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "core/config.hh"

namespace sbn {

/** One trace record. */
struct TraceRecord
{
    Tick tick;
    std::string category;
    std::string message;
};

/** How a TraceSink's stream renders records. */
enum class TraceFormat
{
    Text,  //!< "tick: [category] message" - human-first (default)
    Jsonl, //!< one flat JSON object per line - machine-first
};

/**
 * Collector for trace records with per-category filtering.
 *
 * By default every category is enabled; enableOnly() narrows the set.
 * The ring keeps the most recent @p capacity records so a long run
 * cannot exhaust memory.
 */
class TraceSink
{
  public:
    /**
     * @param stream    if non-null, records are also written there as
     *                  they arrive, rendered per @p format
     * @param capacity  maximum records retained (oldest dropped)
     * @param format    stream rendering; Jsonl emits
     *                  {"tick":N,"category":"...","message":"..."}
     *                  lines in the one flat-JSON codec's form
     *                  (util/flatjson.hh)
     */
    explicit TraceSink(std::ostream *stream = nullptr,
                       std::size_t capacity = 65536,
                       TraceFormat format = TraceFormat::Text);

    /**
     * Restrict tracing to the given categories. A pattern ending in
     * '*' enables every category with that prefix ("bus*" matches
     * "bus" and "bus.arb"); a bare "*" enables everything while
     * keeping the filter active. Other positions of '*' are not
     * special - patterns are exact matches.
     */
    void enableOnly(std::set<std::string> categories);

    /** Re-enable all categories. */
    void enableAll();

    /** True if records of this category are collected. */
    bool wants(const std::string &category) const;

    /** Append a record (no-op when the category is filtered out). */
    void record(Tick tick, const std::string &category,
                std::string message);

    /** Retained records, oldest first. */
    const std::deque<TraceRecord> &records() const { return records_; }

    /** Total records emitted (including ones the ring dropped). */
    std::uint64_t emitted() const { return emitted_; }

    /** Drop retained records (counters keep running). */
    void clear() { records_.clear(); }

  private:
    std::ostream *stream_;
    std::size_t capacity_;
    TraceFormat format_;
    bool filterActive_ = false;
    std::set<std::string> enabled_;
    std::vector<std::string> enabledPrefixes_; //!< trailing-'*' stems
    std::deque<TraceRecord> records_;
    std::uint64_t emitted_ = 0;
};

} // namespace sbn

#endif // SBN_DESIM_TRACE_HH
