#include "analytic/disk_cache.hh"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "util/flatjson.hh"
#include "util/logging.hh"

namespace sbn {

namespace {

constexpr const char *kHeader = "# sbn analytic solve cache v1";

std::string
cachePath(const std::string &stem, std::uint64_t fingerprint)
{
    return analyticCacheDir() + "/" + stem + "-" +
           formatFingerprint(fingerprint) + ".txt";
}

} // namespace

std::string
analyticCacheDir()
{
    const char *env = std::getenv("SBN_CACHE_DIR");
    return std::string(env != nullptr ? env : "");
}

bool
loadCachedSolve(const std::string &stem, std::uint64_t fingerprint,
                std::size_t expected_count,
                std::vector<double> &values)
{
    if (analyticCacheDir().empty())
        return false;
    const std::string path = cachePath(stem, fingerprint);
    std::ifstream in(path);
    if (!in.good())
        return false; // not cached yet - the common cold-start case

    const auto reject = [&](const char *why) {
        sbn_warn("ignoring analytic cache file '", path, "': ", why,
                 " - re-solving");
        return false;
    };

    std::string line;
    if (!std::getline(in, line) || line != kHeader)
        return reject("unrecognized header");
    if (!std::getline(in, line) ||
        line.rfind("fingerprint ", 0) != 0)
        return reject("missing fingerprint line");
    std::uint64_t stored_fp = 0;
    if (!parseFingerprint(line.substr(12), stored_fp) ||
        stored_fp != fingerprint)
        return reject("fingerprint mismatch");
    if (!std::getline(in, line) || line.rfind("count ", 0) != 0)
        return reject("missing count line");
    char *end = nullptr;
    const unsigned long long count =
        std::strtoull(line.c_str() + 6, &end, 10);
    if (end == nullptr || *end != '\0')
        return reject("malformed count");
    if (expected_count != 0 && count != expected_count)
        return reject("value count mismatch");

    std::vector<double> loaded;
    loaded.reserve(count);
    for (unsigned long long i = 0; i < count; ++i) {
        if (!std::getline(in, line))
            return reject("truncated value list");
        // "<%.17g> 0x<bits>": the bits are authoritative; the decimal
        // must agree with them (tamper/corruption check).
        const std::size_t space = line.rfind(' ');
        if (space == std::string::npos)
            return reject("malformed value line");
        double value = 0;
        if (const char *why = checkExactDouble(
                line.substr(0, space),
                std::string_view(line).substr(space + 1), value))
            return reject(why);
        loaded.push_back(value);
    }
    if (std::getline(in, line))
        return reject("trailing data");

    values = std::move(loaded);
    return true;
}

void
storeCachedSolve(const std::string &stem, std::uint64_t fingerprint,
                 const std::vector<double> &values)
{
    const std::string dir = analyticCacheDir();
    if (dir.empty())
        return;
    if (mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
        sbn_warn("cannot create analytic cache directory '", dir,
                 "' - solve not persisted");
        return;
    }

    const std::string path = cachePath(stem, fingerprint);
    // Unique temp name per process: concurrent solvers of the same
    // shape each write their own file and the last rename wins with
    // identical (deterministic) contents.
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp);
        if (!out.good()) {
            sbn_warn("cannot write analytic cache file '", tmp,
                     "' - solve not persisted");
            return;
        }
        out << kHeader << '\n'
            << "fingerprint " << formatFingerprint(fingerprint) << '\n'
            << "count " << values.size() << '\n';
        for (const double value : values) {
            out << formatExactDouble(value) << ' '
                << formatFingerprint(doubleBits(value))
                << '\n';
        }
        out.flush();
        if (!out.good()) {
            sbn_warn("write error on analytic cache file '", tmp, "'");
            std::remove(tmp.c_str());
            return;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        sbn_warn("cannot rename analytic cache file '", tmp,
                 "' over '", path, "'");
        std::remove(tmp.c_str());
        return;
    }
    enforceCacheSizeCap();
}

std::uint64_t
analyticCacheMaxBytes()
{
    const char *env = std::getenv("SBN_CACHE_MAX_BYTES");
    if (env == nullptr || *env == '\0')
        return 0;
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0' || errno == ERANGE ||
        std::strchr(env, '-') != nullptr)
        sbn_fatal("SBN_CACHE_MAX_BYTES must be a byte count, got '",
                  env, "'");
    return parsed;
}

std::size_t
enforceCacheSizeCap()
{
    const std::uint64_t cap = analyticCacheMaxBytes();
    const std::string dir = analyticCacheDir();
    if (cap == 0 || dir.empty())
        return 0;

    struct Entry
    {
        std::string path;
        std::uint64_t size = 0;
        std::time_t mtime = 0;
    };
    std::vector<Entry> entries;
    std::uint64_t total = 0;

    DIR *handle = ::opendir(dir.c_str());
    if (handle == nullptr)
        return 0; // nothing stored yet, or unreadable: best-effort
    while (const dirent *item = ::readdir(handle)) {
        const std::string name = item->d_name;
        // Cache entries only: "<stem>-<fp>.txt". In-flight ".tmp.<pid>"
        // files belong to a concurrent writer, never evict those.
        if (name.size() < 4 ||
            name.compare(name.size() - 4, 4, ".txt") != 0)
            continue;
        Entry entry;
        entry.path = dir + "/" + name;
        struct stat info;
        if (::stat(entry.path.c_str(), &info) != 0 ||
            !S_ISREG(info.st_mode))
            continue;
        entry.size = static_cast<std::uint64_t>(info.st_size);
        entry.mtime = info.st_mtime;
        total += entry.size;
        entries.push_back(std::move(entry));
    }
    ::closedir(handle);
    if (total <= cap)
        return 0;

    // Oldest first; ties broken by path so concurrent evictors make
    // the same choice.
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path < b.path;
              });

    std::size_t evicted = 0;
    for (const Entry &entry : entries) {
        if (total <= cap)
            break;
        // unlink, not truncate: a reader that already opened this
        // entry keeps its complete contents; new lookups miss cleanly.
        if (std::remove(entry.path.c_str()) != 0 && errno != ENOENT)
            continue; // lost a race or unwritable; skip it
        total -= entry.size;
        ++evicted;
    }
    if (evicted != 0)
        sbn_warn("analytic cache over SBN_CACHE_MAX_BYTES; evicted ",
                 evicted, " oldest entr",
                 evicted == 1 ? "y" : "ies", " from '", dir, "'");
    return evicted;
}

} // namespace sbn
