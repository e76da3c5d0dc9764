//go:build !(linux || darwin)

package core

import "os"

// mapFile maps nothing on this OS: LoadModel reads every file.
func mapFile(*os.File) *mapping { return nil }
