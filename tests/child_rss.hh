/**
 * @file
 * Peak-memory probe shared by the bounded-memory tests: run a
 * function in a forked child and read the child's ru_maxrss. Compare
 * two children forked from the same state, since a child starts with
 * its parent's resident pages.
 */

#ifndef PLUTO_TESTS_CHILD_RSS_HH
#define PLUTO_TESTS_CHILD_RSS_HH

#include <gtest/gtest.h>

#include <functional>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace pluto::test
{

/** Peak RSS (KiB) of a forked child running `fn`; the child exits
 *  with `fn`'s result, which must be 0. */
inline long
childPeakRssKb(const std::function<int()> &fn)
{
    const pid_t pid = fork();
    if (pid == 0)
        _exit(fn());
    int status = 0;
    rusage ru{};
    EXPECT_EQ(wait4(pid, &status, 0, &ru), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    return ru.ru_maxrss;
}

} // namespace pluto::test

#endif // PLUTO_TESTS_CHILD_RSS_HH
