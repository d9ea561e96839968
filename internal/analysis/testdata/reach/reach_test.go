package main

import "testing"

func TestDecodeKey(t *testing.T) {
	if decodeKey([]byte("k")) != "k" {
		t.Fatal("decodeKey")
	}
}
