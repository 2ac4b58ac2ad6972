// Package econ estimates the economic cost of Internet disruption, the
// framing the paper opens with: one day of Internet outage costs the US
// alone over $7 billion (NetBlocks' cost tool, cited as [1]), and a
// Carrington-scale grid event is estimated at $0.6-2.6 trillion total.
// The model distributes a per-day, per-region cost over the outage
// fraction and the restoration timeline.
package econ

import (
	"errors"
	"sort"

	"gicnet/internal/geo"
)

// DailyCostUSD is the estimated full-outage cost per day for a region, in
// US dollars. Values extrapolate the paper's $7.1B/day US figure by rough
// digital-economy share; they are order-of-magnitude planning numbers.
var DailyCostUSD = map[geo.Region]float64{
	geo.RegionNorthAmerica: 8.5e9,
	geo.RegionEurope:       7.5e9,
	geo.RegionAsia:         9.0e9,
	geo.RegionSouthAmerica: 1.5e9,
	geo.RegionAfrica:       0.8e9,
	geo.RegionOceania:      0.7e9,
}

// USDailyCostUSD is the paper's headline number for the US alone.
const USDailyCostUSD = 7.1e9

// Outage describes one region's connectivity loss over time.
type Outage struct {
	Region geo.Region
	// LossFrac is the initial fraction of international connectivity
	// lost (0-1).
	LossFrac float64
	// RestoreDays is when the loss is fully repaired; restoration is
	// linear in between.
	RestoreDays float64
}

// Validate reports parameter errors.
func (o Outage) Validate() error {
	if o.LossFrac < 0 || o.LossFrac > 1 {
		return errors.New("econ: loss fraction out of [0,1]")
	}
	if o.RestoreDays < 0 {
		return errors.New("econ: negative restoration time")
	}
	return nil
}

// Cost integrates a region's outage cost in USD: daily cost x loss
// fraction, decaying linearly to zero at RestoreDays.
func (o Outage) Cost() (float64, error) {
	if err := o.Validate(); err != nil {
		return 0, err
	}
	daily, ok := DailyCostUSD[o.Region]
	if !ok {
		return 0, nil // uninhabited / unmodelled region
	}
	// Integral of LossFrac * (1 - t/RestoreDays) over [0, RestoreDays]
	// = LossFrac * RestoreDays / 2.
	return daily * o.LossFrac * o.RestoreDays / 2, nil
}

// Estimate is a total impact breakdown.
type Estimate struct {
	// ByRegion is the per-region cost in USD.
	ByRegion map[geo.Region]float64
	// TotalUSD sums the regions.
	TotalUSD float64
}

// Estimate computes total cost over a set of outages.
func EstimateOutages(outages []Outage) (*Estimate, error) {
	e := &Estimate{ByRegion: map[geo.Region]float64{}}
	for _, o := range outages {
		c, err := o.Cost()
		if err != nil {
			return nil, err
		}
		e.ByRegion[o.Region] += c
		e.TotalUSD += c
	}
	return e, nil
}

// TopRegions returns regions by cost, most expensive first.
func (e *Estimate) TopRegions() []geo.Region {
	regions := make([]geo.Region, 0, len(e.ByRegion))
	for r := range e.ByRegion {
		//gicnet:allow crossdet regions are sorted by (cost, region), a total order on unique keys, right after this loop, so map order cannot leak
		regions = append(regions, r)
	}
	sort.Slice(regions, func(i, j int) bool {
		//gicnet:allow floatcmp exact tie-break gives the comparator a total order
		if e.ByRegion[regions[i]] != e.ByRegion[regions[j]] {
			return e.ByRegion[regions[i]] > e.ByRegion[regions[j]]
		}
		return regions[i] < regions[j]
	})
	return regions
}

// FromScenario derives outages from storm results: for each region, the
// loss fraction is the share of its landing points isolated or split from
// the region's main partition, and restoration follows the repair
// milestones.
//
// regionLoss maps region -> initial international-connectivity loss
// fraction; restore90Days is when 90% of connectivity is restored (the
// outage integral treats this as the effective full-restoration time for
// costing, which keeps the estimate conservative).
func FromScenario(regionLoss map[geo.Region]float64, restore90Days float64) (*Estimate, error) {
	if restore90Days < 0 {
		return nil, errors.New("econ: negative restoration time")
	}
	var outages []Outage
	for r, loss := range regionLoss {
		//gicnet:allow crossdet outages are sorted by their unique Region key immediately after this loop, so map order cannot leak
		outages = append(outages, Outage{Region: r, LossFrac: loss, RestoreDays: restore90Days})
	}
	sort.Slice(outages, func(i, j int) bool { return outages[i].Region < outages[j].Region })
	return EstimateOutages(outages)
}

// Trillions formats a USD amount in trillions.
func Trillions(usd float64) float64 { return usd / 1e12 }

// Billions formats a USD amount in billions.
func Billions(usd float64) float64 { return usd / 1e9 }
