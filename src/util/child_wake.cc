#include "util/child_wake.hh"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/logging.hh"

namespace sbn {

namespace {

/** Write end of the live ChildWake's pipe; -1 when there is none. */
volatile sig_atomic_t g_wakeWriteFd = -1;

extern "C" void
onChildSignal(int)
{
    ChildWake::notify();
}

} // namespace

ChildWake::ChildWake()
{
    sbn_assert(g_wakeWriteFd < 0, "one ChildWake per process");
    if (::pipe(fds_) != 0)
        sbn_fatal("cannot create SIGCHLD pipe: ", std::strerror(errno));
    for (const int fd : fds_) {
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
        ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    }
    g_wakeWriteFd = fds_[1];
    struct sigaction action{};
    action.sa_handler = onChildSignal;
    ::sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART | SA_NOCLDSTOP;
    ::sigaction(SIGCHLD, &action, &previous_);
}

ChildWake::~ChildWake()
{
    if (fds_[0] < 0)
        return; // reset in a forked child
    ::sigaction(SIGCHLD, &previous_, nullptr);
    g_wakeWriteFd = -1;
    ::close(fds_[0]);
    ::close(fds_[1]);
}

void
ChildWake::drain()
{
    char sink[64];
    while (::read(fds_[0], sink, sizeof sink) > 0) {
    }
}

void
ChildWake::wait(int timeout_ms)
{
    pollfd entry{fds_[0], POLLIN, 0};
    if (::poll(&entry, 1, timeout_ms) > 0)
        drain();
}

void
ChildWake::notify()
{
    const int fd = g_wakeWriteFd;
    if (fd < 0)
        return;
    // A full pipe already holds a wake-up, so a failed write loses
    // nothing; errno belongs to the interrupted code.
    const int savedErrno = errno;
    const char byte = 0;
    (void)!::write(fd, &byte, 1);
    errno = savedErrno;
}

void
ChildWake::resetInChild()
{
    ::signal(SIGCHLD, SIG_DFL);
    g_wakeWriteFd = -1;
    ::close(fds_[0]);
    ::close(fds_[1]);
    fds_[0] = fds_[1] = -1;
}

} // namespace sbn
