package main

// referenceDigests is the sha256 of each workload's rendered tables at the
// committed seeds. Seed 2 is held out: a change is developed against seed 1
// and its claim confirmed on seed 2. The output does not depend on the
// sweep worker count.
var referenceDigests = map[string]map[uint64]string{
	"statecache": {
		1: "c5519308d51b934abbb3f0dde66eea09966dac6167b1e5bc238a2730126f0f98",
		2: "f1a1567085b34577a615e85527b3172e49b28b1154664bec0ec71671e8aa6ede",
	},
	"retrystorm": {
		1: "023c99cb1b1610f580b3f56f8bb8fc19dba3baea09fb603b35c3ab154ca4c361",
		2: "c689620f65c31706dad1eeaf459c25d5400716a6a92ac7809180e960373a09a7",
	},
	"faasscale": {
		1: "a4f446b2306262434e5395f399f908a157993623993f05cc8dd269108da8ea91",
		2: "1fb3bd2e69416b8ea9dc3797bcbdc889bcce41bdd7c407f8a46228e8e781bbc8",
	},
}
