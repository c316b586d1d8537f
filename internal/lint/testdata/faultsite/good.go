// Package fixture is the clean faultsite fixture: registered names in every
// checked form, plus dynamic expressions that are out of syntactic reach.
package fixture

func good(site string) {
	_ = faultinject.Fire(faultinject.SiteCoreConstruct)
	_ = faultinject.Fire("core.construct")
	faultinject.Arm("service.worker", faultinject.Fault{})
	faultinject.Disarm("service.handler")
	_ = faultinject.Set("core.construct=panic@0.5,service.handler=delay:1ms")

	// Dynamic site names cannot be checked syntactically.
	_ = faultinject.Fire(site)
	_ = faultinject.Fire("prefix." + site)

	// Same method names on another package are not fault injection.
	_ = other.Fire("whatever")

	// Router-tier site (chaos drills arm it to kill backends mid-storm).
	_ = faultinject.Fire(faultinject.SiteRouterForward)
	_ = faultinject.Fire("router.forward")
	_ = faultinject.Set("router.forward=error@0.5")

	// Gossip and replication sites (partition drills arm these to drop
	// exchanges and corrupt replica bytes in transit).
	_ = faultinject.Fire(faultinject.SiteGossipSend)
	_ = faultinject.Fire(faultinject.SiteGossipMerge)
	faultinject.Arm("store.peerwarm", faultinject.Fault{})
	_ = faultinject.Fire("store.replicate")
	_ = faultinject.Set("gossip.send=error@0.3,store.replicate=delay:5ms")

	// Lease and checkpoint sites (failover drills arm these to drop claims
	// and lose progress records mid-takeover).
	_ = faultinject.Fire(faultinject.SiteLeaseClaim)
	_ = faultinject.Fire("lease.renew")
	faultinject.Arm("job.checkpoint", faultinject.Fault{})
	_ = faultinject.Set("lease.claim=error@0.5,job.checkpoint=error")
}
