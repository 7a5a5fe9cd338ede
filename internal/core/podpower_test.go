package core

import (
	"testing"
	"time"

	"portland/internal/workload"
)

// TestPodPowerCycleRecovers pins the correlated-outage recovery path:
// a whole pod loses power (all four of its switches crash together)
// and comes back. The destination host is a pure receiver — it never
// transmits after the outage — so recovery depends on two mechanisms
// working end to end: sticky pod numbers (the manager re-assigns the
// rebooted pod its old number, keeping every PMAC in the fabric
// meaningful) and host registry replay (the manager re-seeds the
// rebooted edges' PMAC tables via ctrlmsg.HostInstall, since ingress
// learning never re-fires for silent hosts).
func TestPodPowerCycleRecovers(t *testing.T) {
	f := buildK4(t)
	hosts := f.HostList()
	src, dst := hosts[0], hosts[len(hosts)-1] // dst lives in pod 3
	flow := workload.StartCBR(src, dst, 25000, time.Millisecond, 128)
	f.RunFor(500 * time.Millisecond)

	pod3 := []string{"edge-p3-s0", "edge-p3-s1", "agg-p3-s0", "agg-p3-s1"}
	for _, name := range pod3 {
		f.SwitchByName(name).Fail()
	}
	f.RunFor(300 * time.Millisecond)
	for _, name := range pod3 {
		f.SwitchByName(name).Recover()
	}
	recoverAt := f.Eng.Now()
	f.RunFor(3 * time.Second)

	if err := f.CheckDiscovery(); err != nil {
		t.Fatalf("discovery ground truth broken after pod reboot: %v", err)
	}
	conv, ok := flow.RX.ConvergenceAfter(recoverAt, time.Millisecond)
	if !ok {
		t.Fatalf("flow into the power-cycled pod never converged (silent receiver blackholed)")
	}
	if conv > time.Second {
		t.Errorf("convergence after pod recovery = %v, want < 1s", conv)
	}
	// Steady state well after recovery: no residual loss.
	if got := flow.RX.CountIn(recoverAt+2500*time.Millisecond, recoverAt+2900*time.Millisecond); got < 395 {
		t.Errorf("late-window delivery = %d/400, want ≥ 395", got)
	}
	if f.Manager.Stats.HostReplays == 0 {
		t.Errorf("manager replayed no host records to the rebooted edges")
	}
}
