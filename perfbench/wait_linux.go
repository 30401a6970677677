package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// waiter sleeps until a deadline with microsecond precision and
// without spinning: it arms a Linux timerfd, whose expiry wakes the Go
// network poller like a socket event does. (time.Sleep wakes an idle
// process up to a millisecond late, because the poller's own timeout
// has millisecond granularity.)
type waiter struct {
	fd  uintptr // for timerfd_settime; f.Fd() would make f blocking
	f   *os.File
	buf [8]byte
}

func newWaiter() (*waiter, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, syscall.O_NONBLOCK, syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &waiter{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// until blocks until t (a moment that has passed returns at once).
func (w *waiter) until(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	var spec struct{ interval, value syscall.Timespec }
	spec.value = syscall.NsecToTimespec(d.Nanoseconds())
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	_, err := w.f.Read(w.buf[:])
	return err
}

func (w *waiter) close() { w.f.Close() }
