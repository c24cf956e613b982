/**
 * @file
 * Golden-file comparison shared by the golden tests: a rendered
 * string is compared byte for byte against
 * tests/golden/<name>.golden, or the file is rewritten when
 * PLUTO_UPDATE_GOLDEN is set (see tests/README.md).
 */

#ifndef PLUTO_TESTS_GOLDEN_HH
#define PLUTO_TESTS_GOLDEN_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef PLUTO_GOLDEN_DIR
#define PLUTO_GOLDEN_DIR "tests/golden"
#endif

namespace pluto::test
{

/**
 * Compare `got` against golden file `name`, or rewrite the file (and
 * skip) on an update run. `what` names the drifted model in the
 * failure message.
 */
inline void
expectGolden(const std::string &name, const std::string &got,
             const std::string &what)
{
    const std::string path =
        std::string(PLUTO_GOLDEN_DIR) + "/" + name + ".golden";
    if (std::getenv("PLUTO_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << got;
        ASSERT_TRUE(out.good());
        GTEST_SKIP() << "golden updated: " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path
                    << " missing — regenerate with "
                       "PLUTO_UPDATE_GOLDEN=1";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str())
        << what << " drifted from " << path
        << "\nIf intended, regenerate with PLUTO_UPDATE_GOLDEN=1 and "
           "review the diff.";
}

} // namespace pluto::test

#endif // PLUTO_TESTS_GOLDEN_HH
