//go:build linux || darwin

package core

import (
	"io"
	"os"
	"runtime"
	"syscall"
)

// mapFile maps f whole, private and writable — a write copies the page
// it lands on and never reaches the file — when f is a non-empty regular
// file read from its start. Otherwise, or when the mapping fails, it
// returns nil and LoadModel reads f instead.
func mapFile(f *os.File) *mapping {
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() || fi.Size() == 0 || int64(int(fi.Size())) != fi.Size() {
		return nil
	}
	if off, err := f.Seek(0, io.SeekCurrent); err != nil || off != 0 {
		return nil
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(fi.Size()), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE)
	runtime.KeepAlive(f)
	if err != nil {
		return nil
	}
	return newMapping(data, syscall.Munmap)
}
