//go:build linux

package wal

import (
	"os"
	"syscall"
)

// preallocate extends f, off bytes long, by n zero-reading allocated bytes.
// A file system that cannot is not an error: the file grows append by append.
func preallocate(f *os.File, off, n int64) error {
	for {
		switch err := syscall.Fallocate(int(f.Fd()), 0, off, n); err {
		case syscall.EINTR:
		case syscall.EOPNOTSUPP, syscall.ENOSYS:
			return nil
		default:
			return os.NewSyscallError("fallocate", err)
		}
	}
}

// force makes the data written to f durable, with the metadata needed to
// read it back but not the timestamps an fsync would also journal.
func force(f *os.File) error {
	for {
		if err := syscall.Fdatasync(int(f.Fd())); err != syscall.EINTR {
			return os.NewSyscallError("fdatasync", err)
		}
	}
}
