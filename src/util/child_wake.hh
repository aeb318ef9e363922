/**
 * @file
 * SIGCHLD self-pipe: turns "a child process exited" into a readable
 * file descriptor, so a single-threaded loop can block in poll() and
 * wake the moment it has a child to reap instead of polling on a
 * timer.
 *
 * Both fork-and-wait loops use it: the `sbn_sweepd` daemon (job
 * runners) and ShardSupervisor (shard workers). A daemon runner runs a
 * supervisor, so every fork site that keeps running code must call
 * resetInChild() first: the child gets the default SIGCHLD back and
 * drops the parent's pipe before it installs a ChildWake of its own.
 *
 * One ChildWake may be live per process: the signal handler finds the
 * pipe through process-wide state.
 */

#ifndef SBN_UTIL_CHILD_WAKE_HH
#define SBN_UTIL_CHILD_WAKE_HH

#include <signal.h>

namespace sbn {

class ChildWake
{
  public:
    /** Creates the non-blocking pipe, then installs the SIGCHLD
     *  handler (SA_RESTART | SA_NOCLDSTOP); fatal on failure. */
    ChildWake();
    /** Restores the previous SIGCHLD disposition, closes the pipe. */
    ~ChildWake();

    ChildWake(const ChildWake &) = delete;
    ChildWake &operator=(const ChildWake &) = delete;

    /** Read end, for a caller's own poll() set. */
    int fd() const { return fds_[0]; }

    /** Discard every pending wake byte. */
    void drain();

    /**
     * Block until a wake byte arrives, a signal interrupts the wait,
     * or @p timeout_ms passes (-1 = no timeout); drains the pipe.
     */
    void wait(int timeout_ms);

    /**
     * Async-signal-safe: wake the live ChildWake's waiter (no-op when
     * there is none). Other signal handlers call it so that a signal
     * landing just before a blocking wait is not lost.
     */
    static void notify();

    /** In a freshly forked child: default SIGCHLD, pipe closed. */
    void resetInChild();

  private:
    int fds_[2] = {-1, -1};
    struct sigaction previous_{};
};

} // namespace sbn

#endif // SBN_UTIL_CHILD_WAKE_HH
