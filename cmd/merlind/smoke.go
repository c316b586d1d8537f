package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	stdnet "net"
	"net/http"
	"strings"
	"time"

	"merlin/internal/flows"
	"merlin/internal/net"
	"merlin/internal/service"
	"merlin/pkg/client"
)

// trimEach trims whitespace from each element (comma-separated -target).
func trimEach(ss []string) []string {
	out := make([]string, 0, len(ss))
	for _, s := range ss {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// runSmoke drives a quick end-to-end check through pkg/client: healthz +
// readyz, a route, a repeat route that must hit the result cache, three
// more nets through the durable job API (submit, then poll to done), a
// deliberately over-budget request that must classify as budget_exceeded,
// and a stats read. With an empty target it stands up an
// in-process server on a loopback port and smokes that, so `merlind -smoke`
// is a self-contained health check of the build. target may be a
// comma-separated list of base URLs (a ring of merlinds, or routers): the
// client fails over to the next one on connection failure, so the smoke
// passes as long as at least one member answers.
func runSmoke(target string, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	if target == "" {
		srv := service.New(service.Config{})
		defer srv.Shutdown(context.Background())
		ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		target = "http://" + ln.Addr().String()
		log.Printf("merlind: smoke against in-process server at %s", target)
	} else {
		log.Printf("merlind: smoke against %s", target)
	}

	targets := strings.Split(target, ",")
	cl := client.New(strings.TrimSpace(targets[0]),
		client.WithEndpoints(trimEach(targets[1:])...),
		client.WithMaxRetries(4),
		client.WithBackoff(100*time.Millisecond, 2*time.Second))

	if err := cl.Healthz(ctx); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if err := cl.Readyz(ctx); err != nil {
		return fmt.Errorf("readyz: %w", err)
	}

	prof := flows.ProfileFor(8)
	nt := net.Generate(net.DefaultGenSpec(8, 1), prof.Tech, prof.Lib.Driver)
	first, err := cl.Route(ctx, &service.RouteRequest{Net: nt})
	if err != nil {
		return fmt.Errorf("route: %w", err)
	}
	if first.Tree == nil {
		return fmt.Errorf("route: 200 with no tree")
	}
	log.Printf("merlind: smoke route ok (req@driver %.4f ns, wirelength %d)",
		first.ReqAtDriverInputNS, first.Wirelength)

	again, err := cl.Route(ctx, &service.RouteRequest{Net: nt})
	if err != nil {
		return fmt.Errorf("repeat route: %w", err)
	}
	if !again.Cached {
		return fmt.Errorf("repeat route not served from cache")
	}
	if again.ReqAtDriverInputNS != first.ReqAtDriverInputNS {
		return fmt.Errorf("cached answer differs: %.9f vs %.9f",
			again.ReqAtDriverInputNS, first.ReqAtDriverInputNS)
	}

	for seed := int64(2); seed <= 4; seed++ {
		nt := net.Generate(net.DefaultGenSpec(6, seed), prof.Tech, prof.Lib.Driver)
		res, err := cl.RouteAsync(ctx, &service.RouteRequest{Net: nt})
		if err != nil {
			return fmt.Errorf("job (seed %d): %w", seed, err)
		}
		if res == nil || res.Tree == nil {
			return fmt.Errorf("job (seed %d): finished with no tree", seed)
		}
	}

	// The error taxonomy must be live: an impossible budget has to come back
	// as a structured 422, not a 500 or a hang.
	_, err = cl.Route(ctx, &service.RouteRequest{
		Net:    net.Generate(net.DefaultGenSpec(8, 5), prof.Tech, prof.Lib.Driver),
		Budget: &service.Budget{MaxSolutions: 5},
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "budget_exceeded" {
		return fmt.Errorf("over-budget probe: want 422 budget_exceeded, got %v", err)
	}

	// The same impossible budget with allow_degraded must instead fall down
	// the degradation ladder to a rung that fits and answer 200 with a
	// truthful tier annotation.
	deg, err := cl.Route(ctx, &service.RouteRequest{
		Net:           net.Generate(net.DefaultGenSpec(8, 5), prof.Tech, prof.Lib.Driver),
		Budget:        &service.Budget{MaxSolutions: 5},
		AllowDegraded: true,
		NoCache:       true,
	})
	if err != nil {
		return fmt.Errorf("degraded probe: %w", err)
	}
	if !deg.Degraded || deg.Tier == "full" || deg.Tier == "" || deg.Tree == nil {
		return fmt.Errorf("degraded probe: want a degraded 200 with a lower tier, got tier=%q degraded=%v", deg.Tier, deg.Degraded)
	}
	log.Printf("merlind: smoke degraded route ok (tier %s, quality %.2f)", deg.Tier, deg.Quality)

	stats, err := cl.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if stats.Cache.Hits < 1 {
		return fmt.Errorf("stats: no cache hit recorded after repeat route")
	}
	log.Printf("merlind: smoke ok (%d jobs completed, %d cache hits)",
		stats.Counters["jobs.completed"], stats.Cache.Hits)
	return nil
}
