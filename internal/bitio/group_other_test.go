//go:build !amd64

package bitio

func vectorLaneWalkers() []namedLaneWalker { return nil }
