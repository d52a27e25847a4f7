// Command corm-server runs a CoRM node serving the RPC + emulated-RDMA
// protocol over TCP. Store geometry (block size, identifier bits,
// compaction strategy and watermark) and the compactor's pacing are the
// library defaults: corm.DefaultConfig and a zero-valued CompactorConfig.
//
//	corm-server -listen 127.0.0.1:7170 -workers 8 -compact auto
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"corm"
	"corm/internal/metrics"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7170", "TCP listen address")
	workers := flag.Int("workers", 8, "worker threads")
	compactMode := flag.String("compact", "off", "background compaction: auto (adaptive AutoTuner policy), threshold (fragmentation watermarks), off")
	metricsAddr := flag.String("metrics-addr", "", "observability HTTP address (e.g. :9100) serving /metrics, /debug/vars, /debug/pprof; empty = disabled")
	memBudget := flag.String("mem-budget", "", "resident-memory cap with K/M/G suffix (e.g. 256M); cold blocks spill to the tier; empty = uncapped")
	tierSpec := flag.String("tier", "", "spill tier for evicted blocks: compressed, disk, disk:<dir>, off (default compressed when -mem-budget is set)")
	flag.Parse()

	cfg := corm.DefaultConfig()
	cfg.Workers = *workers

	var opts []corm.ServerOption
	if *memBudget != "" {
		bytes, err := parseBytes(*memBudget)
		if err != nil {
			log.Fatalf("-mem-budget: %v", err)
		}
		opts = append(opts, corm.WithMemoryBudget(bytes))
	}
	if *tierSpec != "" {
		opts = append(opts, corm.WithTier(*tierSpec))
	}
	switch strings.ToLower(*compactMode) {
	case "auto":
		opts = append(opts, corm.WithAdaptiveCompaction(corm.CompactorConfig{}))
	case "threshold":
		opts = append(opts, corm.WithBackgroundCompaction(corm.CompactorConfig{}))
	case "off", "":
	default:
		log.Fatalf("unknown -compact mode %q (want auto, threshold, off)", *compactMode)
	}

	srv, err := corm.NewServer(cfg, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.ListenAndServe(*listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("corm-server listening on %s (workers=%d block=%d strategy=%v idbits=%d)",
		addr, cfg.Workers, cfg.BlockBytes, cfg.Strategy, cfg.IDBits)
	if srv.Store().Tiered() {
		log.Printf("elastic memory: budget=%s tier=%s", *memBudget, srv.Store().Config().TierSpec)
	}

	if *metricsAddr != "" {
		maddr, stopMetrics, err := metrics.Serve(*metricsAddr, metrics.Default())
		if err != nil {
			log.Fatalf("metrics endpoint: %v", err)
		}
		defer stopMetrics()
		log.Printf("metrics on http://%s/metrics (expvar: /debug/vars, pprof: /debug/pprof)", maddr)
	}

	if srv.Compactor() != nil {
		log.Printf("background compaction %s", *compactMode)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	ticker := time.NewTicker(10 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-sig:
			st := srv.Stats()
			fmt.Printf("shutting down: allocs=%d frees=%d reads=%d writes=%d compactions=%d blocks-freed=%d\n",
				st.Allocs, st.Frees, st.Reads, st.Writes, st.Compactions, st.BlocksFreed)
			return
		case <-ticker.C:
			st := srv.Stats()
			log.Printf("active=%s allocs=%d frees=%d corrections=%d compactions=%d",
				human(srv.ActiveBytes()), st.Allocs, st.Frees, st.Corrections, st.Compactions)
		}
	}
}

// parseBytes parses a human byte size: a plain number or one with a
// K/M/G/T suffix (binary units), e.g. "256M", "2G", "4096".
func parseBytes(s string) (int64, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(u, "T"):
		mult, u = 1<<40, strings.TrimSuffix(u, "T")
	case strings.HasSuffix(u, "G"):
		mult, u = 1<<30, strings.TrimSuffix(u, "G")
	case strings.HasSuffix(u, "M"):
		mult, u = 1<<20, strings.TrimSuffix(u, "M")
	case strings.HasSuffix(u, "K"):
		mult, u = 1<<10, strings.TrimSuffix(u, "K")
	}
	var n int64
	if _, err := fmt.Sscanf(u, "%d", &n); err != nil || n <= 0 {
		return 0, fmt.Errorf("bad size %q (want e.g. 256M, 2G)", s)
	}
	return n * mult, nil
}

func human(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/float64(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/float64(1<<20))
	}
	return fmt.Sprintf("%dKiB", n>>10)
}
