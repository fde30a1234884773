//go:build !amd64

package xrand

// vectorScans lists no kernels: off amd64 there is no vector scan.
func vectorScans() []scanN { return nil }
