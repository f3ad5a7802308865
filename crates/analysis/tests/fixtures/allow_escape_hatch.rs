// Escape hatch: a documented allow silences exactly the named lint on the
// next source line, and nothing else.
pub fn replay(&self, model: &str) -> Service {
    self.service(model)
        // fsd_lint::allow(no-unwrap): replay drivers fail fast on
        // misconfigured traces, documented under # Panics.
        .unwrap_or_else(|| panic!("model {model:?} not registered"))
}

pub fn still_flagged(&self) -> u32 {
    self.count.checked_add(1).unwrap()
}

// An allow without a reason suppresses nothing and is itself reported.
pub fn unreasoned(&self) -> u32 {
    // fsd_lint::allow(no-unwrap)
    self.count.checked_add(1).unwrap()
}

// There is no wildcard: `all` names no lint.
pub fn wildcard(&self) -> u32 {
    // fsd_lint::allow(all): every lint
    self.count.checked_add(1).unwrap()
}
