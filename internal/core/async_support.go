package core

import "repro/internal/comm"

// asyncCluster meters the coordinator-based communication pattern of
// asynchronous FDA. Unlike the AllReduce fabric, traffic is point-to-point
// with the coordinator: state uploads are one-way from a single worker,
// and a model synchronization is a gather of K models plus a broadcast of
// the average (2·d elements per worker).
type asyncCluster struct {
	meter *comm.Meter
	cost  comm.CostModel
	k, d  int
}

func newAsyncCluster(cfg Config, d int) *asyncCluster {
	return &asyncCluster{meter: comm.NewMeter(), cost: cfg.Cost, k: cfg.K, d: d}
}

// meterStateUpload charges one worker's state upload of n elements.
func (c *asyncCluster) meterStateUpload(n int) {
	c.meter.Charge("state", int64(n)*int64(c.cost.BytesPerParam))
}

// meterModelSync charges a coordinator gather+broadcast of the full model.
func (c *asyncCluster) meterModelSync() {
	c.meter.Charge("model", 2*int64(c.d)*int64(c.cost.BytesPerParam)*int64(c.k))
}
