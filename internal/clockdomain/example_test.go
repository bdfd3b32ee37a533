package clockdomain_test

import (
	"fmt"

	"ssmdvfs/internal/clockdomain"
)

func ExampleDomain() {
	d := clockdomain.NewDomain(clockdomain.TitanX(), clockdomain.DefaultIVR())
	fmt.Println("start:", d.Point())

	// A DVFS transition at t = 1 µs stalls the domain while the IVR
	// settles the new voltage.
	d.SetLevel(0, 1_000_000)
	fmt.Println("after:", d.Point())
	fmt.Println("stalled at t+100ns:", d.Stalled(1_100_000))
	fmt.Println("stalled at t+600ns:", d.Stalled(1_600_000))
	// Output:
	// start: (1.155V, 1165MHz)
	// after: (1.000V, 683MHz)
	// stalled at t+100ns: true
	// stalled at t+600ns: false
}
