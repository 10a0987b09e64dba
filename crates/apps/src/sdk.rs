//! Models of the named third-party SDKs of §6.2, each with its documented
//! collection behaviour and cloud endpoint.

use core::fmt;

/// The SDKs the paper names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SdkKind {
    /// "innosdk": NetBIOS NBSTAT sweep of 192.168.0.0/24, ARP via
    /// `libarp.so`, algorithmically-generated payloads; endpoint
    /// gw.innotechworld.com. Carried by "Lucky Time - Win Rewards".
    InnoSdk,
    /// Cisco AppDynamics: wraps network callbacks, harvests UPnP device
    /// descriptors, beacons to events.claspws.tv with base64 SSID, Android
    /// ID, IDFA and the list of screen devices. Carried by the CNN app.
    AppDynamics,
    /// Umlaut insightCore: SSDP discovery targeting the UPnP IGD service;
    /// uploads connected-device lists and geolocation. Carried by Simple
    /// Speedcheck.
    UmlautInsightCore,
    /// MyTracker (my.com): harvests nearby Wi-Fi MACs/BSSIDs without the
    /// required permissions.
    MyTracker,
    /// Amplitude analytics: receives device MACs relayed by IoT apps.
    Amplitude,
    /// Tuya's own SDK: relays device MACs and IDs through Tuya cloud.
    TuyaSdk,
}

impl SdkKind {
    /// The collection endpoint observed in decrypted traffic.
    pub fn endpoint(self) -> &'static str {
        match self {
            SdkKind::InnoSdk => "https://gw.innotechworld.com/v1/collect",
            SdkKind::AppDynamics => "https://events.claspws.tv/v1/event",
            SdkKind::UmlautInsightCore => "https://tacs.c0nnectthed0ts.com/policy1/upload",
            SdkKind::MyTracker => "https://tracker.my.com/v2/batch",
            SdkKind::Amplitude => "https://api.amplitude.com/2/httpapi",
            SdkKind::TuyaSdk => "https://a1.tuyaus.com/api.json",
        }
    }

    /// Does this SDK actively scan the LAN itself (vs passively receiving
    /// data from the host app)?
    pub fn scans_lan(self) -> bool {
        matches!(
            self,
            SdkKind::InnoSdk
                | SdkKind::AppDynamics
                | SdkKind::UmlautInsightCore
                | SdkKind::MyTracker
        )
    }

    /// Marketing name, for reports.
    pub fn name(self) -> &'static str {
        match self {
            SdkKind::InnoSdk => "innosdk",
            SdkKind::AppDynamics => "AppDynamics",
            SdkKind::UmlautInsightCore => "Umlaut insightCore",
            SdkKind::MyTracker => "MyTracker",
            SdkKind::Amplitude => "Amplitude",
            SdkKind::TuyaSdk => "Tuya SDK",
        }
    }
}

impl fmt::Display for SdkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The innosdk scan payload is generated algorithmically rather than stored
/// as a constant, "perhaps to avoid being detected as obvious malware"
/// (§6.2). We reproduce the generation: the NBSTAT wildcard query bytes are
/// derived at call time from the encoding rules, never embedded.
pub fn innosdk_generate_probe(transaction_id: u16) -> Vec<u8> {
    // Generated, not constant: build the first-level-encoded wildcard name
    // from the nibble-to-letter rule each time.
    let mut name = String::with_capacity(32);
    let raw = {
        let mut raw = [0u8; 16];
        raw[0] = b'*';
        raw
    };
    for byte in raw {
        name.push((b'A' + (byte >> 4)) as char);
        name.push((b'A' + (byte & 0x0f)) as char);
    }
    let mut out = Vec::with_capacity(50);
    out.extend_from_slice(&transaction_id.to_be_bytes());
    out.extend_from_slice(&[0, 0]); // flags
    out.extend_from_slice(&1u16.to_be_bytes());
    out.extend_from_slice(&[0, 0, 0, 0, 0, 0]);
    out.push(32);
    out.extend_from_slice(name.as_bytes());
    out.push(0);
    out.extend_from_slice(&0x0021u16.to_be_bytes()); // NBSTAT
    out.extend_from_slice(&1u16.to_be_bytes()); // IN
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_match_paper() {
        assert!(SdkKind::InnoSdk.endpoint().contains("gw.innotechworld.com"));
        assert!(SdkKind::AppDynamics
            .endpoint()
            .contains("events.claspws.tv/v1/event"));
        assert!(SdkKind::MyTracker.endpoint().contains("tracker.my.com"));
    }

    #[test]
    fn generated_probe_parses_as_nbstat_wildcard() {
        let bytes = innosdk_generate_probe(0x0001);
        let query = iotlan_wire::netbios::Query::parse(&bytes).unwrap();
        assert_eq!(query.name, "*");
        assert_eq!(query.qtype, iotlan_wire::netbios::TYPE_NBSTAT);
        // And matches the canonical encoder byte-for-byte.
        let reference = iotlan_wire::netbios::Query::nbstat_wildcard(0x0001).to_bytes();
        assert_eq!(bytes, reference);
    }

    #[test]
    fn lan_scanning_sdks() {
        assert!(SdkKind::InnoSdk.scans_lan());
        assert!(SdkKind::UmlautInsightCore.scans_lan());
        assert!(!SdkKind::Amplitude.scans_lan());
    }
}
