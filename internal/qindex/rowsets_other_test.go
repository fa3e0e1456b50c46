//go:build !amd64

package qindex

func vectorRowSets() map[string]func(rows []uint64, row []uint16) { return nil }
