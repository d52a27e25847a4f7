package corm

import (
	"bytes"
	"errors"
	"testing"
)

func TestPublicAPILocal(t *testing.T) {
	srv, err := NewServer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := srv.ConnectLocal()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	addr, err := cli.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 64)
	if err := cli.Write(&addr, payload); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := cli.DirectRead(&addr, buf); err != nil || !bytes.Equal(buf, payload) {
		t.Fatalf("DirectRead: %v", err)
	}
	if err := cli.Free(&addr); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Read(&addr, buf); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after free: %v", err)
	}
}

func TestPublicAPITCP(t *testing.T) {
	srv, err := NewServer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ptr, err := cli.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x11}, 256)
	if err := cli.Write(&ptr, payload); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	if _, err := cli.SmartRead(&ptr, buf); err != nil || !bytes.Equal(buf, payload) {
		t.Fatalf("SmartRead over TCP: %v", err)
	}
}

func TestPublicCompaction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FragThreshold = 1.5
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, _ := srv.ConnectLocal()
	defer cli.Close()

	var addrs []Addr
	for i := 0; i < 512; i++ {
		a, err := cli.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	perBlock := make(map[uint64]int)
	var live []Addr
	for _, a := range addrs {
		base := a.VAddr() &^ uint64(cfg.BlockBytes-1)
		if perBlock[base] < 2 {
			perBlock[base]++
			live = append(live, a)
			continue
		}
		aa := a
		if err := cli.Free(&aa); err != nil {
			t.Fatal(err)
		}
	}
	before := srv.ActiveBytes()
	rep := srv.Compact()
	if rep.BlocksFreed == 0 {
		t.Fatalf("compaction freed nothing: %+v", rep)
	}
	if srv.ActiveBytes() >= before {
		t.Fatal("active memory did not drop")
	}
	for i := range live {
		buf := make([]byte, 64)
		if _, err := cli.SmartRead(&live[i], buf); err != nil {
			t.Fatalf("object lost after public Compact: %v", err)
		}
	}
}
