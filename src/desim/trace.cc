#include "desim/trace.hh"

#include "util/flatjson.hh"

namespace sbn {

TraceSink::TraceSink(std::ostream *stream, std::size_t capacity,
                     TraceFormat format)
    : stream_(stream), capacity_(capacity), format_(format)
{
}

void
TraceSink::enableOnly(std::set<std::string> categories)
{
    filterActive_ = true;
    enabled_.clear();
    enabledPrefixes_.clear();
    for (const std::string &pattern : categories) {
        if (!pattern.empty() && pattern.back() == '*')
            enabledPrefixes_.push_back(
                pattern.substr(0, pattern.size() - 1));
        else
            enabled_.insert(pattern);
    }
}

void
TraceSink::enableAll()
{
    filterActive_ = false;
    enabled_.clear();
    enabledPrefixes_.clear();
}

bool
TraceSink::wants(const std::string &category) const
{
    if (!filterActive_ || enabled_.count(category) > 0)
        return true;
    for (const std::string &prefix : enabledPrefixes_) {
        if (category.compare(0, prefix.size(), prefix) == 0)
            return true;
    }
    return false;
}

void
TraceSink::record(Tick tick, const std::string &category,
                  std::string message)
{
    if (!wants(category))
        return;
    ++emitted_;
    if (stream_) {
        if (format_ == TraceFormat::Jsonl) {
            *stream_ << FlatWriter()
                            .unsignedInt("tick", tick)
                            .string("category", category)
                            .string("message", message)
                            .finish()
                     << '\n';
        } else {
            *stream_ << tick << ": [" << category << "] " << message
                     << '\n';
        }
    }
    records_.push_back(TraceRecord{tick, category, std::move(message)});
    if (records_.size() > capacity_)
        records_.pop_front();
}

} // namespace sbn
