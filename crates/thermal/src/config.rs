//! Package stack-up and solver configuration.

/// One layer of the package stack-up.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Human-readable layer name ("die", "tim", ...).
    pub name: String,
    /// Layer thickness in millimetres.
    pub thickness_mm: f64,
    /// Thermal conductivity in W/(m·K).
    pub conductivity_w_mk: f64,
}

impl Layer {
    /// Creates a layer description.
    ///
    /// # Panics
    ///
    /// Panics if the thickness or conductivity is not strictly positive.
    pub fn new(name: impl Into<String>, thickness_mm: f64, conductivity_w_mk: f64) -> Self {
        assert!(thickness_mm > 0.0, "layer thickness must be positive");
        assert!(
            conductivity_w_mk > 0.0,
            "layer conductivity must be positive"
        );
        Self {
            name: name.into(),
            thickness_mm,
            conductivity_w_mk,
        }
    }
}

/// Ordered stack of package layers, from the interposer at the bottom to the
/// heat sink at the top. Heat leaves the package through convection above
/// the last (top) layer; the bottom is adiabatic, matching HotSpot's default
/// primary-path-only configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerStack {
    layers: Vec<Layer>,
    /// Index of the layer into which chiplet power is injected.
    power_layer: usize,
}

impl LayerStack {
    /// Builds a stack from explicit layers and the index of the power layer.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or `power_layer` is out of range.
    pub fn new(layers: Vec<Layer>, power_layer: usize) -> Self {
        assert!(!layers.is_empty(), "the layer stack must not be empty");
        assert!(power_layer < layers.len(), "power layer index out of range");
        Self {
            layers,
            power_layer,
        }
    }

    /// Representative 2.5D stack-up: silicon interposer, chiplet die layer,
    /// thermal interface material, copper heat spreader and heat sink base.
    ///
    /// Values follow HotSpot's defaults adapted to a 2.5D assembly.
    pub fn default_2_5d() -> Self {
        Self::new(
            vec![
                Layer::new("interposer", 0.10, 120.0),
                Layer::new("die", 0.15, 120.0),
                Layer::new("tim", 0.05, 4.0),
                Layer::new("spreader", 1.0, 400.0),
                Layer::new("heatsink", 6.9, 400.0),
            ],
            1,
        )
    }

    /// The layers from bottom (interposer) to top (heat sink).
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Index of the layer receiving chiplet power.
    pub fn power_layer(&self) -> usize {
        self.power_layer
    }
}

impl Default for LayerStack {
    fn default() -> Self {
        Self::default_2_5d()
    }
}

/// Full configuration of a thermal analysis run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalConfig {
    /// Number of grid cells along the interposer width.
    pub grid_nx: usize,
    /// Number of grid cells along the interposer height.
    pub grid_ny: usize,
    /// Package stack-up.
    pub stack: LayerStack,
    /// Ambient temperature in degrees Celsius.
    pub ambient_c: f64,
    /// Total heat-sink-to-ambient convection resistance in K/W.
    ///
    /// HotSpot's default `r_convec` is 0.1 K/W; the conductance is spread
    /// uniformly over the top-layer grid cells.
    pub convection_resistance_k_per_w: f64,
}

impl ThermalConfig {
    /// Configuration with a custom grid resolution and default package.
    pub fn with_grid(grid_nx: usize, grid_ny: usize) -> Self {
        Self {
            grid_nx,
            grid_ny,
            ..Self::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason if any parameter is unusable.
    pub fn validate(&self) -> Result<(), String> {
        if self.grid_nx < 2 || self.grid_ny < 2 {
            return Err(format!(
                "thermal grid must be at least 2x2, got {}x{}",
                self.grid_nx, self.grid_ny
            ));
        }
        let positive_finite = |v: f64| v > 0.0 && v.is_finite();
        if !positive_finite(self.convection_resistance_k_per_w) {
            return Err(format!(
                "convection resistance must be positive and finite, got {}",
                self.convection_resistance_k_per_w
            ));
        }
        if !self.ambient_c.is_finite() {
            return Err("ambient temperature must be finite".to_string());
        }
        // The fields are public, so a layer may never have met
        // `Layer::new`'s checks. A layer that conducts nothing leaves the
        // conductance matrix singular.
        for (index, layer) in self.stack.layers().iter().enumerate() {
            for (quantity, value) in [
                ("thickness", layer.thickness_mm),
                ("conductivity", layer.conductivity_w_mk),
            ] {
                if !positive_finite(value) {
                    return Err(format!(
                        "layer {index} (\"{}\") {quantity} must be positive and finite, got {value}",
                        layer.name
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Default for ThermalConfig {
    fn default() -> Self {
        Self {
            grid_nx: 32,
            grid_ny: 32,
            stack: LayerStack::default_2_5d(),
            ambient_c: 45.0,
            convection_resistance_k_per_w: 0.1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_stack_is_ordered_and_has_die_power_layer() {
        let stack = LayerStack::default_2_5d();
        assert_eq!(stack.layer_count(), 5);
        assert_eq!(stack.layers()[stack.power_layer()].name, "die");
    }

    #[test]
    fn default_config_is_valid() {
        assert!(ThermalConfig::default().validate().is_ok());
    }

    #[test]
    fn with_grid_overrides_resolution() {
        let c = ThermalConfig::with_grid(64, 48);
        assert_eq!(c.grid_nx, 64);
        assert_eq!(c.grid_ny, 48);
        assert_eq!(c.ambient_c, ThermalConfig::default().ambient_c);
    }

    #[test]
    fn tiny_grid_is_rejected() {
        let c = ThermalConfig::with_grid(1, 8);
        assert!(c.validate().is_err());
    }

    #[test]
    fn non_positive_convection_is_rejected() {
        let c = ThermalConfig {
            convection_resistance_k_per_w: 0.0,
            ..ThermalConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn infinite_convection_is_rejected() {
        let c = ThermalConfig {
            convection_resistance_k_per_w: f64::INFINITY,
            ..ThermalConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn layers_that_cannot_conduct_are_rejected_by_name() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            for (index, name) in [(2, "tim"), (4, "heatsink")] {
                let mut thin = LayerStack::default_2_5d().layers().to_vec();
                thin[index].thickness_mm = bad;
                let mut insulating = LayerStack::default_2_5d().layers().to_vec();
                insulating[index].conductivity_w_mk = bad;
                for (layers, quantity) in [(thin, "thickness"), (insulating, "conductivity")] {
                    let c = ThermalConfig {
                        stack: LayerStack::new(layers, 1),
                        ..ThermalConfig::default()
                    };
                    let reason = c.validate().unwrap_err();
                    assert!(
                        reason.contains(&format!("layer {index} (\"{name}\") {quantity}")),
                        "{reason}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "thickness must be positive")]
    fn zero_thickness_layer_panics() {
        Layer::new("bad", 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "power layer index")]
    fn power_layer_out_of_range_panics() {
        LayerStack::new(vec![Layer::new("a", 1.0, 1.0)], 3);
    }
}
