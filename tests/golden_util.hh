/**
 * @file
 * Shared helper for exact-match golden Metrics pinning (see
 * docs/testing.md). A golden file holds "label value" lines; values
 * are compared as serialized strings (%.17g for doubles, so the
 * comparison is bit-exact), and SBN_REGEN_GOLDEN=1 regenerates the
 * file in the source tree instead of comparing.
 */

#ifndef SBN_TESTS_GOLDEN_UTIL_HH
#define SBN_TESTS_GOLDEN_UTIL_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "util/flatjson.hh"

#ifndef SBN_GOLDEN_DIR
#error "SBN_GOLDEN_DIR must point at the tests/golden source directory"
#endif

namespace sbn::golden {

struct GoldenLine
{
    std::string label;
    std::string value; //!< exact serialized form
};

inline std::string
exact(double value)
{
    return formatExactDouble(value);
}

inline std::string
exact(std::uint64_t value)
{
    return std::to_string(value);
}

/** Exact-match golden comparison (or regen under SBN_REGEN_GOLDEN). */
inline void
checkExactGolden(const std::string &name,
                 const std::vector<GoldenLine> &computed)
{
    const std::string path =
        std::string(SBN_GOLDEN_DIR) + "/" + name + ".txt";

    if (std::getenv("SBN_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << "# Pinned simulator Metrics (label value; exact "
               "match; see docs/testing.md).\n"
            << "# Regenerate with SBN_REGEN_GOLDEN=1 after an "
               "intentional kernel-behavior change.\n";
        for (const GoldenLine &line : computed)
            out << line.label << ' ' << line.value << '\n';
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " - run with SBN_REGEN_GOLDEN=1 to create it";

    std::vector<GoldenLine> expected;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t split = line.rfind(' ');
        ASSERT_NE(split, std::string::npos) << "bad line: " << line;
        expected.push_back(
            {line.substr(0, split), line.substr(split + 1)});
    }

    ASSERT_EQ(expected.size(), computed.size())
        << "golden file " << path
        << " and computed grid disagree on size - regenerate if the "
           "grid changed intentionally";
    for (std::size_t i = 0; i < computed.size(); ++i) {
        EXPECT_EQ(computed[i].label, expected[i].label)
            << "entry " << i << " of " << path;
        EXPECT_EQ(computed[i].value, expected[i].value)
            << computed[i].label << " in " << path
            << " - simulator behavior drifted";
    }
}

} // namespace sbn::golden

#endif // SBN_TESTS_GOLDEN_UTIL_HH
