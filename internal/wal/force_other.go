//go:build !linux

package wal

import "os"

// preallocate is a no-op without fallocate: the file grows append by append.
func preallocate(*os.File, int64, int64) error { return nil }

// force makes the data written to f durable.
func force(f *os.File) error { return f.Sync() }
