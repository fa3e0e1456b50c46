//go:build !amd64

package minhash

func vectorSketchKernels() []namedSketchKernel { return nil }
